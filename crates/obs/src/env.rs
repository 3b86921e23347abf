//! Centralized environment-variable override parsing.
//!
//! Every `PREM_*` toggle in the workspace goes through these helpers, so an
//! invalid value is rejected *loudly* — one warning on stderr naming the
//! variable, the rejected value and the documented default — instead of each
//! call site silently treating garbage as "unset" (or worse, as "set": a
//! `v != "0"` check treats `off` as *enabled*).
//!
//! Accepted boolean spellings (case-insensitive, surrounding whitespace
//! ignored): `1`/`0`, `true`/`false`, `on`/`off`, `yes`/`no`. Integer
//! variables accept a plain non-negative decimal.

/// Parses a boolean override value. `None` when the spelling is not one of
/// the accepted forms.
pub fn parse_flag(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

/// Reads the boolean environment override `name`, falling back to `default`
/// when unset. An invalid value warns on stderr and falls back to `default`
/// — it is never silently interpreted.
pub fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!(
                "warning: {name}={raw:?} is not valid unicode; \
                 using the default ({default})"
            );
            default
        }
        Ok(v) => match parse_flag(&v) {
            Some(b) => b,
            None => {
                eprintln!(
                    "warning: {name}={v:?} is not a boolean \
                     (accepted: 1/0, true/false, on/off, yes/no); \
                     using the default ({default})"
                );
                default
            }
        },
    }
}

/// Reads the non-negative integer environment override `name`, falling back
/// to `default` when unset. An invalid value warns on stderr and falls back
/// to `default`.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!(
                "warning: {name}={raw:?} is not valid unicode; \
                 using the default ({default})"
            );
            default
        }
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!(
                    "warning: {name}={v:?} is not a non-negative integer; \
                     using the default ({default})"
                );
                default
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses a variable name unique to itself: tests run on
    // concurrent threads and the process environment is shared.

    #[test]
    fn flag_spellings() {
        for v in ["1", "true", "TRUE", " on ", "Yes"] {
            assert_eq!(parse_flag(v), Some(true), "{v:?}");
        }
        for v in ["0", "false", "OFF", "no", " No"] {
            assert_eq!(parse_flag(v), Some(false), "{v:?}");
        }
        for v in ["", "2", "enabled", "o n", "tru"] {
            assert_eq!(parse_flag(v), None, "{v:?}");
        }
    }

    #[test]
    fn env_flag_unset_uses_default() {
        assert!(env_flag("PREM_TEST_FLAG_UNSET_A", true));
        assert!(!env_flag("PREM_TEST_FLAG_UNSET_B", false));
    }

    #[test]
    fn env_flag_reads_valid_values() {
        std::env::set_var("PREM_TEST_FLAG_VALID", "off");
        assert!(!env_flag("PREM_TEST_FLAG_VALID", true));
        std::env::set_var("PREM_TEST_FLAG_VALID", "1");
        assert!(env_flag("PREM_TEST_FLAG_VALID", false));
    }

    #[test]
    fn env_flag_rejects_garbage_to_default() {
        std::env::set_var("PREM_TEST_FLAG_GARBAGE", "maybe");
        assert!(env_flag("PREM_TEST_FLAG_GARBAGE", true));
        assert!(!env_flag("PREM_TEST_FLAG_GARBAGE", false));
    }

    #[test]
    fn env_u64_parses_and_rejects() {
        std::env::set_var("PREM_TEST_U64_VALID", " 480 ");
        assert_eq!(env_u64("PREM_TEST_U64_VALID", 240), 480);
        std::env::set_var("PREM_TEST_U64_BAD", "4m");
        assert_eq!(env_u64("PREM_TEST_U64_BAD", 240), 240);
        assert_eq!(env_u64("PREM_TEST_U64_UNSET", 7), 7);
    }
}
