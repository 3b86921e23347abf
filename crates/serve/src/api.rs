//! Request validation and response construction for the `/optimize` endpoint.
//!
//! Every request is reduced to a **canonical key** — the compact serialization
//! of the fully-resolved request (defaults spelled out, params sorted) — so
//! that semantically identical requests coalesce onto one computation
//! regardless of key order or which defaults the client spelled out.

use prem_core::{AppOutcome, OptimizerOptions, Platform};
use prem_ir::Program;
use prem_obs::{Json, PhaseTimings};

/// Largest kernel source the server will hand to the frontend parser.
pub const MAX_SOURCE_BYTES: usize = 256 * 1024;

/// A validation failure with the HTTP status it should be reported as.
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status (400 for non-JSON, 422 for schema/semantic violations).
    pub status: u16,
    /// Human-readable description, echoed to the client.
    pub message: String,
}

impl ApiError {
    /// Builds an error with `status` and `message`.
    pub fn new(status: u16, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            message: message.into(),
        }
    }

    fn invalid(message: impl Into<String>) -> ApiError {
        ApiError::new(422, message)
    }
}

/// Serializes the structured error body `{"error":{"status":…,"message":…}}`.
pub fn error_body(status: u16, message: &str) -> String {
    Json::obj::<&str, Json>([(
        "error",
        Json::obj::<&str, Json>([
            ("status", Json::Num(f64::from(status))),
            ("message", Json::from(message)),
        ]),
    )])
    .to_compact()
}

/// The structured `503 Service Unavailable` body for a full compute queue:
/// the machine-readable `retry_after_s` mirrors the `Retry-After` header so
/// clients that only look at bodies still see the backoff hint.
pub fn overload_body(retry_after_s: u64) -> String {
    Json::obj::<&str, Json>([(
        "error",
        Json::obj::<&str, Json>([
            ("status", Json::Num(503.0)),
            (
                "message",
                Json::from("compute queue is full; retry after retry_after_s seconds"),
            ),
            ("retry_after_s", Json::Num(retry_after_s as f64)),
        ]),
    )])
    .to_compact()
}

/// Which kernel the request targets.
#[derive(Debug, Clone)]
pub enum KernelSpec {
    /// One of the bundled PolyBench-NN kernels by name.
    Builtin {
        /// Kernel name (`cnn`, `lstm`, …).
        name: String,
        /// Use the paper's LARGE problem size instead of the test size.
        large: bool,
    },
    /// A kernel in the frontend's source language, parsed per request.
    Source {
        /// Program name (becomes the generated C entry point's prefix).
        name: String,
        /// Kernel source text.
        source: String,
        /// Named parameter bindings, sorted by name.
        params: Vec<(String, i64)>,
    },
}

/// A fully validated `/optimize` request.
#[derive(Debug, Clone)]
pub struct OptimizeRequest {
    /// The kernel to optimize.
    pub kernel: KernelSpec,
    /// Display name of the kernel (echoed in the response).
    pub kernel_name: String,
    /// Target platform (defaults overridden by the `platform` object).
    pub platform: Platform,
    /// Optimizer options (the library defaults, with `max_iter` and `seed`
    /// overridable); the server passes them to the optimizer as they are.
    pub options: OptimizerOptions,
    /// Canonical compact-JSON key identifying this computation.
    pub canonical: String,
}

fn check_keys(pairs: &[(String, Json)], allowed: &[&str], ctx: &str) -> Result<(), ApiError> {
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::invalid(format!(
                "unknown field {key:?} in {ctx} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn int_field(value: &Json, name: &str, lo: i64, hi: i64) -> Result<i64, ApiError> {
    let x = value
        .as_f64()
        .ok_or_else(|| ApiError::invalid(format!("{name} must be a number")))?;
    if !x.is_finite() || x.fract() != 0.0 || !(-9.0e15..=9.0e15).contains(&x) {
        return Err(ApiError::invalid(format!("{name} must be an integer")));
    }
    let x = x as i64;
    if !(lo..=hi).contains(&x) {
        return Err(ApiError::invalid(format!(
            "{name} must be between {lo} and {hi}, got {x}"
        )));
    }
    Ok(x)
}

fn ident(s: &str, what: &str) -> Result<(), ApiError> {
    let mut chars = s.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if !head_ok || s.len() > 64 || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(ApiError::invalid(format!(
            "{what} must be an identifier of at most 64 characters, got {s:?}"
        )));
    }
    Ok(())
}

/// Names of the bundled kernels.
pub fn builtin_names() -> Vec<&'static str> {
    prem_kernels::all_small()
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

fn parse_kernel_spec(kernel: &Json) -> Result<KernelSpec, ApiError> {
    let Json::Obj(pairs) = kernel else {
        return Err(ApiError::invalid("\"kernel\" must be an object"));
    };
    if kernel.get("builtin").is_some() {
        check_keys(pairs, &["builtin", "size"], "\"kernel\"")?;
        let name = kernel
            .get("builtin")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::invalid("\"builtin\" must be a string"))?;
        let known = builtin_names();
        if !known.contains(&name) {
            return Err(ApiError::invalid(format!(
                "unknown builtin kernel {name:?} (available: {})",
                known.join(", ")
            )));
        }
        let large = match kernel.get("size").map(|s| s.as_str()) {
            None => false,
            Some(Some("small")) => false,
            Some(Some("large")) => true,
            Some(_) => {
                return Err(ApiError::invalid("\"size\" must be \"small\" or \"large\""));
            }
        };
        Ok(KernelSpec::Builtin {
            name: name.to_string(),
            large,
        })
    } else if kernel.get("source").is_some() {
        check_keys(pairs, &["name", "source", "params"], "\"kernel\"")?;
        let source = kernel
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::invalid("\"source\" must be a string"))?;
        if source.len() > MAX_SOURCE_BYTES {
            return Err(ApiError::invalid(format!(
                "kernel source exceeds the {MAX_SOURCE_BYTES}-byte limit"
            )));
        }
        let name = match kernel.get("name") {
            None => "kernel".to_string(),
            Some(n) => {
                let n = n
                    .as_str()
                    .ok_or_else(|| ApiError::invalid("kernel \"name\" must be a string"))?;
                ident(n, "kernel \"name\"")?;
                n.to_string()
            }
        };
        let mut params: Vec<(String, i64)> = Vec::new();
        if let Some(pv) = kernel.get("params") {
            let Json::Obj(ppairs) = pv else {
                return Err(ApiError::invalid("\"params\" must be an object"));
            };
            for (pname, pval) in ppairs {
                ident(pname, "parameter name")?;
                let v = int_field(pval, &format!("parameter {pname:?}"), -(1 << 40), 1 << 40)?;
                if params.iter().any(|(existing, _)| existing == pname) {
                    return Err(ApiError::invalid(format!("duplicate parameter {pname:?}")));
                }
                params.push((pname.clone(), v));
            }
            params.sort();
        }
        Ok(KernelSpec::Source {
            name,
            source: source.to_string(),
            params,
        })
    } else {
        Err(ApiError::invalid(
            "\"kernel\" needs either \"builtin\" or \"source\"",
        ))
    }
}

/// Validates a request body into an [`OptimizeRequest`].
///
/// # Errors
///
/// 400 when the body is not JSON at all, 422 for any schema or semantic
/// violation (unknown fields, wrong types, out-of-range values, unknown
/// builtin kernels).
pub fn parse_optimize_request(body: &str) -> Result<OptimizeRequest, ApiError> {
    let json = Json::parse(body)
        .map_err(|e| ApiError::new(400, format!("request is not valid JSON: {e}")))?;
    let Json::Obj(top) = &json else {
        return Err(ApiError::invalid("request must be a JSON object"));
    };
    check_keys(top, &["kernel", "platform", "options"], "the request")?;
    let kernel_value = json
        .get("kernel")
        .ok_or_else(|| ApiError::invalid("missing required field \"kernel\""))?;
    let kernel = parse_kernel_spec(kernel_value)?;
    let kernel_name = match &kernel {
        KernelSpec::Builtin { name, .. } => name.clone(),
        KernelSpec::Source { name, .. } => name.clone(),
    };

    let mut platform = Platform::default();
    if let Some(p) = json.get("platform") {
        let Json::Obj(pairs) = p else {
            return Err(ApiError::invalid("\"platform\" must be an object"));
        };
        check_keys(pairs, &["cores", "spm_kib", "bus_gbytes"], "\"platform\"")?;
        if let Some(v) = p.get("cores") {
            platform.cores = int_field(v, "\"cores\"", 1, 1024)? as usize;
        }
        if let Some(v) = p.get("spm_kib") {
            platform.spm_bytes = int_field(v, "\"spm_kib\"", 1, 1 << 20)? * 1024;
        }
        if let Some(v) = p.get("bus_gbytes") {
            let x = v
                .as_f64()
                .ok_or_else(|| ApiError::invalid("\"bus_gbytes\" must be a number"))?;
            if !x.is_finite() || x <= 0.0 || x > 1.0e6 {
                return Err(ApiError::invalid(
                    "\"bus_gbytes\" must be a positive number of at most 1e6",
                ));
            }
            platform.bus_bytes_per_sec = x * 1.0e9;
        }
    }

    let mut options = OptimizerOptions::default();
    if let Some(o) = json.get("options") {
        let Json::Obj(pairs) = o else {
            return Err(ApiError::invalid("\"options\" must be an object"));
        };
        check_keys(pairs, &["max_iter", "seed"], "\"options\"")?;
        if let Some(v) = o.get("max_iter") {
            options.max_iter = int_field(v, "\"max_iter\"", 1, 64)? as usize;
        }
        if let Some(v) = o.get("seed") {
            options.seed = int_field(v, "\"seed\"", 0, 1 << 53)? as u64;
        }
    }

    let kernel_json = match &kernel {
        KernelSpec::Builtin { name, large } => Json::obj::<&str, Json>([
            ("builtin", Json::from(name.as_str())),
            ("size", Json::from(if *large { "large" } else { "small" })),
        ]),
        KernelSpec::Source {
            name,
            source,
            params,
        } => Json::obj::<&str, Json>([
            ("name", Json::from(name.as_str())),
            ("source", Json::from(source.as_str())),
            (
                "params",
                Json::Obj(
                    params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
        ]),
    };
    let canonical = Json::obj::<&str, Json>([
        ("kernel", kernel_json),
        (
            "platform",
            Json::obj::<&str, Json>([
                ("cores", Json::from(platform.cores)),
                ("spm_bytes", Json::from(platform.spm_bytes)),
                ("bus_bytes_per_sec", Json::from(platform.bus_bytes_per_sec)),
            ]),
        ),
        (
            "options",
            Json::obj::<&str, Json>([
                ("max_iter", Json::from(options.max_iter)),
                ("seed", Json::Num(options.seed as f64)),
            ]),
        ),
    ])
    .to_compact();

    Ok(OptimizeRequest {
        kernel,
        kernel_name,
        platform,
        options,
        canonical,
    })
}

/// Materializes the request's program: a bundled kernel, or the frontend
/// parse of the submitted source (panic-free — malformed source is a 422).
///
/// # Errors
///
/// 422 when the submitted source does not parse.
pub fn build_program(req: &OptimizeRequest) -> Result<Program, ApiError> {
    match &req.kernel {
        KernelSpec::Builtin { name, large } => {
            let set = if *large {
                prem_kernels::all_large()
            } else {
                prem_kernels::all_small()
            };
            set.into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, program)| program)
                .ok_or_else(|| ApiError::invalid(format!("unknown builtin kernel {name:?}")))
        }
        KernelSpec::Source {
            name,
            source,
            params,
        } => {
            let params: Vec<(&str, i64)> = params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            prem_frontend::parse_kernel(name, source, &params)
                .map_err(|e| ApiError::invalid(format!("kernel does not parse: {e}")))
        }
    }
}

/// Builds the `/optimize` response body.
///
/// The `result` sub-object is fully deterministic for a given canonical
/// request (makespans are carried both as a number and as `makespan_bits`,
/// the hex of the f64 bit pattern, for exact comparison); `telemetry` carries
/// search counters and wall-clock and is *not* deterministic.
pub fn response_body(
    kernel: &str,
    outcome: &AppOutcome,
    generated_c: Option<String>,
    phases: &PhaseTimings,
) -> String {
    let components: Vec<Json> = outcome
        .components
        .iter()
        .map(|c| {
            Json::obj::<&str, Json>([
                (
                    "levels",
                    Json::Arr(
                        c.level_names
                            .iter()
                            .map(|n| Json::from(n.as_str()))
                            .collect(),
                    ),
                ),
                (
                    "k",
                    Json::Arr(c.solution.k.iter().copied().map(Json::from).collect()),
                ),
                (
                    "r",
                    Json::Arr(c.solution.r.iter().copied().map(Json::from).collect()),
                ),
                ("exec_count", Json::Num(c.exec_count as f64)),
                ("makespan_ns", Json::from(c.result.makespan_ns)),
                ("exec_ns", Json::from(c.result.exec_ns)),
                ("api_ns", Json::from(c.result.api_ns)),
                ("mem_ns", Json::from(c.result.mem_ns)),
                ("bytes", Json::from(c.result.bytes)),
                ("ops", Json::from(c.result.ops)),
                ("spm_bytes", Json::from(c.result.spm_bytes)),
            ])
        })
        .collect();
    let result = Json::obj::<&str, Json>([
        ("kernel", Json::from(kernel)),
        ("feasible", Json::from(outcome.makespan_ns.is_finite())),
        ("makespan_ns", Json::from(outcome.makespan_ns)),
        (
            "makespan_bits",
            Json::from(format!("{:016x}", outcome.makespan_ns.to_bits())),
        ),
        ("components", Json::Arr(components)),
        (
            "generated_c",
            generated_c.map(Json::Str).unwrap_or(Json::Null),
        ),
    ]);
    let telemetry = Json::obj::<&str, Json>([
        ("search", outcome.search_totals().to_json(false)),
        ("phases", phases.to_json()),
    ]);
    Json::obj::<&str, Json>([("result", result), ("telemetry", telemetry)]).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_request_parses_and_canonicalizes() {
        let a = parse_optimize_request(r#"{"kernel":{"builtin":"cnn"}}"#).unwrap();
        // Same request with defaults spelled out and keys reordered.
        let b = parse_optimize_request(
            r#"{"options":{"seed":24301,"max_iter":3},
                "kernel":{"size":"small","builtin":"cnn"},
                "platform":{"cores":8,"spm_kib":128,"bus_gbytes":16}}"#,
        )
        .unwrap();
        assert_eq!(a.canonical, b.canonical);
        assert_eq!(a.kernel_name, "cnn");
        assert_eq!(a.platform.cores, 8);
        assert_eq!(a.options, OptimizerOptions::default());
    }

    #[test]
    fn unknown_fields_are_rejected() {
        for body in [
            r#"{"kernel":{"builtin":"cnn"},"junk":1}"#,
            r#"{"kernel":{"builtin":"cnn","oops":true}}"#,
            r#"{"kernel":{"builtin":"cnn"},"platform":{"cpus":4}}"#,
            r#"{"kernel":{"builtin":"cnn"},"options":{"iterations":9}}"#,
            r#"{"kernel":{"builtin":"cnn"},"options":{"batched":true}}"#,
            r#"{"kernel":{"builtin":"cnn"},"options":{"adaptive":true}}"#,
        ] {
            let e = parse_optimize_request(body).unwrap_err();
            assert_eq!(e.status, 422, "{body}");
            assert!(e.message.contains("unknown field"), "{}", e.message);
        }
    }

    #[test]
    fn bad_shapes_are_422_not_panics() {
        for body in [
            r#"[1,2,3]"#,
            r#"{"kernel":7}"#,
            r#"{"kernel":{"builtin":"no-such-kernel"}}"#,
            r#"{"kernel":{"builtin":"cnn","size":"huge"}}"#,
            r#"{"kernel":{"source":"...","name":"1bad"}}"#,
            r#"{"kernel":{"source":"...","params":{"n":1.5}}}"#,
            r#"{"kernel":{"builtin":"cnn"},"platform":{"cores":0}}"#,
            r#"{"kernel":{"builtin":"cnn"},"platform":{"bus_gbytes":-1}}"#,
            r#"{"kernel":{"builtin":"cnn"},"options":{"max_iter":1e9}}"#,
        ] {
            assert_eq!(
                parse_optimize_request(body).unwrap_err().status,
                422,
                "{body}"
            );
        }
        assert_eq!(parse_optimize_request("{nope").unwrap_err().status, 400);
    }

    #[test]
    fn source_params_sort_into_the_canonical_key() {
        let a = parse_optimize_request(
            r#"{"kernel":{"source":"for i in 0..N { }","params":{"N":4,"M":2}}}"#,
        )
        .unwrap();
        let b = parse_optimize_request(
            r#"{"kernel":{"source":"for i in 0..N { }","params":{"M":2,"N":4}}}"#,
        )
        .unwrap();
        assert_eq!(a.canonical, b.canonical);
    }

    #[test]
    fn error_body_is_structured_json() {
        let body = error_body(422, "nope");
        let json = Json::parse(&body).unwrap();
        let err = json.get("error").unwrap();
        assert_eq!(err.get("status").and_then(Json::as_f64), Some(422.0));
        assert_eq!(err.get("message").and_then(Json::as_str), Some("nope"));
    }

    #[test]
    fn overload_body_carries_retry_hint() {
        let json = Json::parse(&overload_body(1)).unwrap();
        let err = json.get("error").unwrap();
        assert_eq!(err.get("status").and_then(Json::as_f64), Some(503.0));
        assert_eq!(err.get("retry_after_s").and_then(Json::as_f64), Some(1.0));
        assert!(err.get("message").and_then(Json::as_str).is_some());
    }
}
