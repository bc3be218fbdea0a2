//! Strict command-line parsing. Every flag is checked before any work
//! starts, so a typo exits non-zero without generating data or writing
//! anything.

use crate::workloads::Workload;

/// A fully validated invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every workload to a size whose checks run in seconds.
    pub smoke: bool,
}

pub const USAGE: &str = "usage: stsmbench --workload <pemsbay_train|metro_forecast|pemsbay_serve> \
--seed <u64> --seconds <1..=600> --trace <0|1> [--smoke]";

/// Parses `argv` (without the program name).
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            if smoke {
                return Err("--smoke given twice".into());
            }
            smoke = true;
            continue;
        }
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        if slot.is_some() {
            return Err(format!("{flag} given twice"));
        }
        *slot = Some(it.next().ok_or_else(|| format!("{flag} needs a value"))?);
    }
    let required = |v: Option<String>, name: &str| v.ok_or_else(|| format!("missing {name}"));
    let workload = required(workload, "--workload")?;
    let workload =
        Workload::from_name(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = required(seed, "--seed")?;
    let seed = seed.parse::<u64>().map_err(|_| format!("--seed {seed:?} is not a u64"))?;
    let seconds = required(seconds, "--seconds")?;
    let seconds = match seconds.parse::<u32>() {
        Ok(s @ 1..=600) => s as f64,
        _ => return Err(format!("--seconds {seconds:?} is not a whole number in 1..=600")),
    };
    let trace = match required(trace, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} must be 0 or 1")),
    };
    Ok(Args { workload, seed, seconds, trace, smoke })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn accepts_the_full_form() {
        let a = parse(argv("--workload metro_forecast --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::MetroForecast);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 10.0, true, false));
        let a = parse(argv("--smoke --trace 0 --seconds 1 --seed 0 --workload pemsbay_serve"));
        assert!(a.unwrap().smoke);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "--workload pemsbay_train --seed 1 --seconds 10",
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload pemsbay_train --seed -1 --seconds 10 --trace 0",
            "--workload pemsbay_train --seed 1 --seconds 0 --trace 0",
            "--workload pemsbay_train --seed 1 --seconds 2.5 --trace 0",
            "--workload pemsbay_train --seed 1 --seconds 10 --trace 2",
            "--workload pemsbay_train --seed 1 --seconds 10 --trace 0 --verbose",
            "--workload pemsbay_train --seed 1 --seed 2 --seconds 10 --trace 0",
            "--workload pemsbay_train --seed 1 --seconds 10 --trace",
            "--smoke --smoke --workload pemsbay_train --seed 1 --seconds 10 --trace 0",
        ] {
            assert!(parse(argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
