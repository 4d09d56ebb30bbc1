//! The process's `LDPC_*` environment knobs, parsed in one place.
//!
//! Two shapes exist: boolean flags (`LDPC_FORCE_SCALAR`, `LDPC_PIN_THREADS`)
//! and positive counts (`LDPC_DECODE_THREADS`). Every caller caches the
//! value it reads, so each knob is read, and a malformed value diagnosed on
//! stderr, once per process; changing a variable after its first use has no
//! effect.

/// Reads the boolean knob `name`.
///
/// Unset and the usual falsey spellings (`0`, `false`, `no`, `off`, empty —
/// trimmed, case-insensitive) are `false`; the truthy spellings (`1`,
/// `true`, `yes`, `on`) are `true`. Any other value is diagnosed and treated
/// as *set*: the user clearly asked for the feature, and a garbled spelling
/// should honour the request rather than silently drop it.
pub(crate) fn flag(name: &str) -> bool {
    parse_flag(name, std::env::var(name).ok().as_deref())
}

/// Reads the count knob `name`: `Some` for a positive integer (surrounding
/// whitespace allowed); `None` when unset, and `None` with a diagnostic for
/// zero or anything unparseable, so a malformed value falls back to the
/// caller's default instead of being misread as some other count.
pub(crate) fn count(name: &str) -> Option<usize> {
    parse_count(name, std::env::var(name).ok().as_deref())
}

pub(crate) fn parse_flag(name: &str, raw: Option<&str>) -> bool {
    let Some(raw) = raw else {
        return false;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "false" | "no" | "off" => false,
        "1" | "true" | "yes" | "on" => true,
        _ => {
            eprintln!("ldpc-core: unrecognised {name}={raw:?} (expected 0/1); treating it as set");
            true
        }
    }
}

pub(crate) fn parse_count(name: &str, raw: Option<&str>) -> Option<usize> {
    let raw = raw?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!(
                "ldpc-core: ignoring {name}={raw:?} (need a positive integer); using the default"
            );
            None
        }
    }
}

/// Every spelling a boolean knob must accept, with the value it reads as.
/// Each flag knob's test runs this table through [`parse_flag`].
#[cfg(test)]
pub(crate) const FLAG_SPELLINGS: &[(Option<&str>, bool)] = &[
    (None, false),
    (Some(""), false),
    (Some("0"), false),
    (Some(" 0 "), false),
    (Some("false"), false),
    (Some("FALSE"), false),
    (Some("no"), false),
    (Some("off"), false),
    (Some(" Off "), false),
    (Some("1"), true),
    (Some(" 1\n"), true),
    (Some("true"), true),
    (Some("TRUE"), true),
    (Some("yes"), true),
    (Some("Yes"), true),
    (Some("on"), true),
    (Some(" ON "), true),
    // Garbled values are diagnosed and honoured as a request.
    (Some("2"), true),
    (Some("maybe"), true),
    (Some("enable the pins"), true),
];

/// Every spelling a count knob must accept or refuse, with the value it
/// reads as. Each count knob's test runs this table through [`parse_count`].
#[cfg(test)]
pub(crate) const COUNT_SPELLINGS: &[(Option<&str>, Option<usize>)] = &[
    (None, None),
    (Some("4"), Some(4)),
    (Some(" 12\n"), Some(12)),
    (Some("64"), Some(64)),
    // Zero, negatives, garbage and overflow all fall back (with a
    // diagnostic) instead of being misread.
    (Some("0"), None),
    (Some("-3"), None),
    (Some(""), None),
    (Some("four"), None),
    (Some("8 threads"), None),
    (Some("999999999999999999999999"), None),
];
