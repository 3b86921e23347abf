//! PREM-compliant C code generation (Chapter 5 of the thesis).
//!
//! [`emit_original_c`] prints the analyzed kernel back as plain C;
//! [`emit_prem_c`] produces the transformed, tiled, double-buffered program
//! with the streaming-API calls of §3.5 / Listing 3.3 inserted.
//!
//! Every emitter writes straight into one `String`: fragments go in through
//! `write!`/`push_str`, never through an intermediate `format!`.

#![warn(missing_docs)]
#![warn(clippy::format_push_string)]

/// `write!` into a `String` sink, which cannot fail.
macro_rules! w {
    ($out:expr, $($arg:tt)*) => {{
        let _ = ::std::fmt::Write::write_fmt($out, format_args!($($arg)*));
    }};
}

pub mod cexpr;
pub mod original;
pub mod prem;
pub mod runtime;
pub mod tiled;

pub use original::emit_original_c;
pub use prem::{emit_prem_c, emit_prem_c_with_budget, EmitComponent, EmitError};
pub use runtime::{host_harness_c, host_main_c};
pub use tiled::emit_tiled_c;
