//! Argument parsing helpers: durations, flags, platform overrides.

use dck_core::{PlatformParams, Protocol, Scenario};
use std::collections::BTreeMap;

/// Parses a human duration into seconds: `45`, `45s`, `30min`, `7h`,
/// `1d`, `2w`. A bare number means seconds.
pub fn parse_duration(s: &str) -> Result<f64, String> {
    let s = s.trim();
    let (num, mult) = if let Some(v) = s.strip_suffix("min") {
        (v, 60.0)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix('h') {
        (v, 3600.0)
    } else if let Some(v) = s.strip_suffix('d') {
        (v, 86_400.0)
    } else if let Some(v) = s.strip_suffix('w') {
        (v, 7.0 * 86_400.0)
    } else {
        (s, 1.0)
    };
    let value: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("cannot parse duration `{s}`"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("duration `{s}` must be finite and >= 0"));
    }
    Ok(value * mult)
}

/// Formats seconds back into a compact human duration.
pub fn format_duration(secs: f64) -> String {
    if !secs.is_finite() {
        return format!("{secs}");
    }
    let (v, unit) = if secs.abs() >= 7.0 * 86_400.0 {
        (secs / (7.0 * 86_400.0), "w")
    } else if secs.abs() >= 86_400.0 {
        (secs / 86_400.0, "d")
    } else if secs.abs() >= 3600.0 {
        (secs / 3600.0, "h")
    } else if secs.abs() >= 60.0 {
        (secs / 60.0, "min")
    } else {
        (secs, "s")
    };
    if (v - v.round()).abs() < 1e-9 {
        format!("{}{unit}", v.round())
    } else {
        format!("{v:.2}{unit}")
    }
}

/// Flag-style arguments: `--key value` pairs plus positional arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
    consumed: std::cell::RefCell<Vec<String>>,
    /// How many leading positionals some command has read.
    positionals_read: std::cell::Cell<usize>,
}

impl Args {
    /// Splits raw arguments into `--key value` flags and positionals.
    /// A flag followed by another flag (or by nothing) consumes no
    /// value and reads as `true` — e.g. `--resume` and `--resume true`
    /// are equivalent.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match it.next_if(|next| !next.starts_with("--")) {
                    Some(v) => v.clone(),
                    None => "true".to_string(),
                };
                if flags.insert(key.to_string(), value).is_some() {
                    return Err(format!("flag --{key} given twice"));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args {
            flags,
            positional,
            ..Args::default()
        })
    }

    /// A positional argument by index (marks it and every earlier one
    /// as consumed).
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals_read
            .set(self.positionals_read.get().max(i + 1));
        self.positional.get(i).map(String::as_str)
    }

    /// Raw flag lookup (marks the flag as consumed).
    pub fn get(&self, key: &str) -> Option<&str> {
        let v = self.flags.get(key).map(String::as_str);
        if v.is_some() {
            self.consumed.borrow_mut().push(key.to_string());
        }
        v
    }

    /// Typed flag lookup with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("cannot parse --{key} value `{v}`")),
        }
    }

    /// Optional count flag that must be at least 1 when given; `zero`
    /// says why 0 is refused.
    pub(crate) fn get_count_opt<T>(&self, key: &str, zero: &str) -> Result<Option<T>, String>
    where
        T: std::str::FromStr + PartialEq + From<u8>,
    {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        match v.parse() {
            Err(_) => Err(format!("cannot parse --{key} value `{v}`")),
            Ok(n) if n == T::from(0) => Err(format!("--{key} must be at least 1 ({zero})")),
            Ok(n) => Ok(Some(n)),
        }
    }

    /// Count flag with default that must be at least 1.
    pub(crate) fn get_count<T>(&self, key: &str, default: T, zero: &str) -> Result<T, String>
    where
        T: std::str::FromStr + PartialEq + From<u8>,
    {
        Ok(self.get_count_opt(key, zero)?.unwrap_or(default))
    }

    /// Comma-separated list flag, each entry read by `parse`, with
    /// default.
    pub(crate) fn get_list<T>(
        &self,
        key: &str,
        default: Vec<T>,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        match self.get(key) {
            None => Ok(default),
            Some(list) => list
                .split(',')
                .map(|s| parse(s.trim()).map_err(|e| format!("bad --{key} entry `{s}`: {e}")))
                .collect(),
        }
    }

    /// Duration flag lookup with default (seconds).
    pub fn get_duration(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => parse_duration(v),
        }
    }

    /// Duration flag lookup with default that must be positive.
    pub(crate) fn get_positive_duration(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.get_duration(key, default)?;
        if v > 0.0 {
            Ok(v)
        } else {
            Err(format!("--{key} must be a positive duration, got {v}"))
        }
    }

    /// Errors on any flag or positional argument that no command
    /// consumed (catches typos).
    pub fn ensure_all_consumed(&self) -> Result<(), String> {
        if let Some(extra) = self.positional.get(self.positionals_read.get()) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        let consumed = self.consumed.borrow();
        for key in self.flags.keys() {
            if !consumed.iter().any(|c| c == key) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(())
    }
}

/// Resolves the platform parameters for a command: start from
/// `--scenario` (default `base`) and apply individual overrides.
pub fn resolve_params(args: &Args) -> Result<(PlatformParams, String), String> {
    let name = args.get("scenario").unwrap_or("base");
    let scenario =
        Scenario::by_name(name).ok_or_else(|| format!("unknown scenario `{name}` (base|exa)"))?;
    let mut p = scenario.params;
    if let Some(v) = args.get("delta") {
        p.delta = parse_duration(v)?;
    }
    if let Some(v) = args.get("theta-min") {
        p.theta_min = parse_duration(v)?;
    }
    if let Some(v) = args.get("downtime") {
        p.downtime = parse_duration(v)?;
    }
    if let Some(v) = args.get("alpha") {
        p.alpha = v.parse().map_err(|_| format!("bad --alpha `{v}`"))?;
    }
    if let Some(v) = args.get("nodes") {
        p.nodes = v.parse().map_err(|_| format!("bad --nodes `{v}`"))?;
    }
    p.validate().map_err(|e| e.to_string())?;
    Ok((p, scenario.name))
}

/// Resolves `--protocol` (required unless `default` given).
pub fn resolve_protocol(args: &Args, default: Option<Protocol>) -> Result<Protocol, String> {
    match args.get("protocol") {
        Some(v) => Protocol::parse(v).ok_or_else(|| {
            format!(
                "unknown protocol `{v}` (expected one of: {}, or buddy:K[:bof] with K in 2..=8)",
                Protocol::registry()
                    .iter()
                    .map(|p| p.id())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }),
        None => default.ok_or_else(|| "--protocol is required".to_string()),
    }
}

/// Resolves `--phi-ratio` (in `[0,1]`, default 0) into an absolute φ.
pub fn resolve_phi(args: &Args, params: &PlatformParams) -> Result<f64, String> {
    let ratio: f64 = args.get_parsed("phi-ratio", 0.0)?;
    if !(0.0..=1.0).contains(&ratio) {
        return Err(format!("--phi-ratio must be in [0, 1], got {ratio}"));
    }
    Ok(ratio * params.theta_min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn durations_parse() {
        assert_eq!(parse_duration("45").unwrap(), 45.0);
        assert_eq!(parse_duration("45s").unwrap(), 45.0);
        assert_eq!(parse_duration("30min").unwrap(), 1800.0);
        assert_eq!(parse_duration("7h").unwrap(), 25_200.0);
        assert_eq!(parse_duration("1d").unwrap(), 86_400.0);
        assert_eq!(parse_duration("2w").unwrap(), 1_209_600.0);
        assert_eq!(parse_duration(" 1.5h ").unwrap(), 5400.0);
        assert!(parse_duration("abc").is_err());
        assert!(parse_duration("-5s").is_err());
    }

    #[test]
    fn durations_format() {
        assert_eq!(format_duration(45.0), "45s");
        assert_eq!(format_duration(1800.0), "30min");
        assert_eq!(format_duration(25_200.0), "7h");
        assert_eq!(format_duration(86_400.0), "1d");
        assert_eq!(format_duration(5400.0), "1.50h");
    }

    #[test]
    fn flags_and_positionals() {
        let a = args(&["waste", "--mtbf", "7h", "--protocol", "triple"]);
        assert_eq!(a.positional(0), Some("waste"));
        assert_eq!(a.get("mtbf"), Some("7h"));
        assert_eq!(a.get("protocol"), Some("triple"));
        assert!(a.ensure_all_consumed().is_ok());
    }

    #[test]
    fn boolean_flags_read_as_true() {
        // Trailing flag and flag-before-flag both consume no value.
        let a = args(&["sweep", "--resume", "--checkpoint", "dir", "--dry-run"]);
        assert_eq!(a.get("resume"), Some("true"));
        assert_eq!(a.get("checkpoint"), Some("dir"));
        assert_eq!(a.get("dry-run"), Some("true"));
        assert_eq!(a.get_parsed("resume", false), Ok(true));
        // An explicit value still wins.
        let b = args(&["sweep", "--resume", "false"]);
        assert_eq!(b.get_parsed("resume", true), Ok(false));
    }

    #[test]
    fn unconsumed_flags_detected() {
        let a = args(&["waste", "--bogus", "1"]);
        assert!(a.ensure_all_consumed().is_err());
    }

    #[test]
    fn unconsumed_positionals_detected() {
        let a = args(&["trace", "stats", "a.json", "b.json"]);
        assert_eq!(a.positional(2), Some("a.json"));
        assert_eq!(
            a.ensure_all_consumed(),
            Err("unexpected argument `b.json`".to_string())
        );
        assert_eq!(a.positional(3), Some("b.json"));
        assert!(a.ensure_all_consumed().is_ok());
    }

    #[test]
    fn duplicate_flag_rejected() {
        let raw: Vec<String> = ["--x", "1", "--x", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn params_resolution_with_overrides() {
        let a = args(&["--scenario", "exa", "--delta", "10s", "--nodes", "1000"]);
        let (p, name) = resolve_params(&a).unwrap();
        assert_eq!(name, "Exa");
        assert_eq!(p.delta, 10.0);
        assert_eq!(p.nodes, 1000);
        assert_eq!(p.theta_min, 60.0); // untouched
    }

    #[test]
    fn protocol_and_phi_resolution() {
        let a = args(&["--protocol", "double-bof", "--phi-ratio", "0.5"]);
        let p = resolve_protocol(&a, None).unwrap();
        assert_eq!(p, Protocol::DoubleBof);
        let (params, _) = resolve_params(&args(&[])).unwrap();
        let phi = resolve_phi(&args(&["--phi-ratio", "0.5"]), &params).unwrap();
        assert_eq!(phi, 2.0);
        assert!(resolve_phi(&args(&["--phi-ratio", "1.5"]), &params).is_err());
    }

    #[test]
    fn bad_scenario_and_protocol_rejected() {
        assert!(resolve_params(&args(&["--scenario", "petascale"])).is_err());
        assert!(resolve_protocol(&args(&["--protocol", "quadruple"]), None).is_err());
        assert!(resolve_protocol(&args(&[]), None).is_err());
    }
}
