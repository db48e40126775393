//! Minimal command-line handling shared by the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--quick` — smaller network / shorter runs / fewer topologies, for CI;
//! * `--topologies N` — number of random topologies (default 10, paper);
//! * `--runs N` — alias of `--topologies` for testbed repetitions (paper: 5);
//! * `--seed N` — base seed (default 1);
//! * `--probe-rate X` — probe-interval scaling factor;
//! * `--filter S` — only run configurations whose name contains `S`.

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Reduced configuration for fast runs.
    pub quick: bool,
    /// Number of topologies / repetitions.
    pub topologies: Option<usize>,
    /// Base seed.
    pub seed: u64,
    /// Probe-rate factor override.
    pub probe_rate: Option<f64>,
    /// Substring filter on configuration names.
    pub filter: Option<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            quick: false,
            topologies: None,
            seed: 1,
            probe_rate: None,
            filter: None,
        }
    }
}

impl CliArgs {
    /// Parse from an iterator of arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or bad values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliArgs, String> {
        let mut out = CliArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--topologies" | "--runs" => {
                    let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                    let n: usize = v.parse().map_err(|_| format!("bad value for {a}: {v}"))?;
                    if n == 0 {
                        return Err(format!("{a} must be at least 1"));
                    }
                    out.topologies = Some(n);
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
                }
                "--probe-rate" => {
                    let v = it.next().ok_or("--probe-rate needs a value")?;
                    let r: f64 = v.parse().map_err(|_| format!("bad probe rate: {v}"))?;
                    // NaN fails `is_finite`; `r <= 0.0` alone lets it through.
                    if !r.is_finite() || r <= 0.0 {
                        return Err(format!("probe rate must be positive and finite: {v}"));
                    }
                    out.probe_rate = Some(r);
                }
                "--filter" => {
                    let v = it.next().ok_or("--filter needs a value")?;
                    out.filter = Some(v);
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: [--quick] [--topologies N] [--seed N] [--probe-rate X] \
                         [--filter S]"
                            .into(),
                    )
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(out)
    }

    /// Parse from the process arguments, exiting with a message on error.
    pub fn from_env() -> CliArgs {
        match CliArgs::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Whether a configuration named `name` passes the `--filter` (all do
    /// when no filter was given).
    pub fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// The seeds to run: `topologies` (or `default_n`) seeds starting at
    /// `seed`.
    pub fn seeds(&self, default_n: usize) -> Vec<u64> {
        let n = self.topologies.unwrap_or(if self.quick {
            default_n.min(3)
        } else {
            default_n
        });
        (0..n as u64).map(|i| self.seed + i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<CliArgs, String> {
        CliArgs::parse(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, CliArgs::default());
        assert_eq!(a.seeds(10).len(), 10);
    }

    #[test]
    fn quick_reduces_seeds() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.seeds(10).len(), 3);
    }

    #[test]
    fn explicit_topologies_override() {
        let a = parse(&["--quick", "--topologies", "7"]).unwrap();
        assert_eq!(a.seeds(10).len(), 7);
    }

    #[test]
    fn seed_base_offsets() {
        let a = parse(&["--seed", "100", "--topologies", "2"]).unwrap();
        assert_eq!(a.seeds(10), vec![100, 101]);
    }

    #[test]
    fn probe_rate_parses() {
        let a = parse(&["--probe-rate", "5"]).unwrap();
        assert_eq!(a.probe_rate, Some(5.0));
        assert!(parse(&["--probe-rate", "-1"]).is_err());
        assert!(parse(&["--probe-rate", "0"]).is_err());
        assert!(parse(&["--probe-rate", "nan"]).is_err());
        assert!(parse(&["--probe-rate", "inf"]).is_err());
        assert!(parse(&["--probe-rate", "-inf"]).is_err());
    }

    #[test]
    fn unknown_flag_errors() {
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--topologies"]).is_err());
        assert!(parse(&["--topologies", "0"]).is_err());
        assert!(parse(&["--runs", "0"]).is_err());
    }

    #[test]
    fn filter_matches_substring() {
        let a = parse(&["--filter", "mobile"]).unwrap();
        assert_eq!(a.filter.as_deref(), Some("mobile"));
        assert!(a.matches("mobile-metro-n500"));
        assert!(!a.matches("paper-n50"));
        assert!(parse(&["--filter"]).is_err());
        // No filter: everything matches.
        assert!(parse(&[]).unwrap().matches("anything"));
    }
}
