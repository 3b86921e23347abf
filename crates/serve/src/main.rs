//! `prem-serve`: the long-lived PREM optimization server.
//!
//! ```text
//! prem-serve [--addr HOST:PORT] [--threads N] [--pool N] [--queue N]
//!                                               # serve until POST /shutdown
//! ```

use prem_serve::{Server, ServerConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cfg = ServerConfig::default();
    let mut addr_set = false;
    let usage = "usage: prem-serve [--addr HOST:PORT] [--threads N] [--pool N] [--queue N]";
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => {
                    cfg.addr = a;
                    addr_set = true;
                }
                None => {
                    eprintln!("--addr needs a HOST:PORT argument");
                    std::process::exit(2);
                }
            },
            "--threads" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.workers = n.min(64),
                _ => {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--pool" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.pool_size = n.min(256),
                _ => {
                    eprintln!("--pool needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--queue" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.queue_cap = n.min(4096),
                _ => {
                    eprintln!("--queue needs a positive integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
    if !addr_set {
        cfg.addr = "127.0.0.1:7878".to_string();
    }
    let (pool, queue) = (cfg.pool_size, cfg.queue_cap);
    match Server::start(cfg) {
        Ok(server) => {
            println!("prem-serve listening on {}", server.addr());
            println!(
                "endpoints: POST /optimize, GET /health, GET /stats, POST /shutdown \
                 (compute pool {pool}, queue {queue})"
            );
            server.wait();
            println!("prem-serve stopped");
        }
        Err(e) => {
            eprintln!("failed to start: {e}");
            std::process::exit(1);
        }
    }
}
