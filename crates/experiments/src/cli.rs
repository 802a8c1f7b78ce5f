//! Small shared helpers for the command-line binaries.

use bp_workloads::WorkloadConfig;

/// Largest accepted `--target` value: 100 billion branches. Past this the
/// request is almost certainly a typo (at ~10⁸ branches/s that is a
/// multi-day run), so it is rejected with a clear error instead of being
/// attempted.
pub const MAX_TARGET_BRANCHES: u64 = 100_000_000_000;

/// Parses a branch-count target: plain digits (underscore separators
/// allowed) with an optional `k`/`m`/`b` suffix — `200_000`, `2m`,
/// `100m`, `1b`. Case-insensitive. Rejects zero and anything above
/// [`MAX_TARGET_BRANCHES`] with a message naming the limit.
pub fn parse_target(s: &str) -> Result<usize, String> {
    let t = s.trim().to_ascii_lowercase();
    let (num, mult): (&str, u64) = if let Some(p) = t.strip_suffix('k') {
        (p, 1_000)
    } else if let Some(p) = t.strip_suffix('m') {
        (p, 1_000_000)
    } else if let Some(p) = t.strip_suffix('b') {
        (p, 1_000_000_000)
    } else {
        (t.as_str(), 1)
    };
    let digits: String = num.chars().filter(|&c| c != '_').collect();
    if digits.is_empty() || !digits.chars().all(|c| c.is_ascii_digit()) {
        return Err(format!(
            "invalid branch count '{s}' (examples: 200000, 500k, 2m, 100m, 1b)"
        ));
    }
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("branch count '{s}' does not fit in 64 bits"))?;
    let total = n
        .checked_mul(mult)
        .filter(|&t| t <= MAX_TARGET_BRANCHES)
        .ok_or_else(|| {
            format!(
                "target '{s}' is unreasonably large: the limit is \
                 {MAX_TARGET_BRANCHES} branches (100b)"
            )
        })?;
    if total == 0 {
        return Err("branch count must be positive".to_owned());
    }
    Ok(total as usize)
}

/// Applies `flag` when it is one of the workload flags the batch binaries
/// share — `--target N[k|m|b]` or `--seed N` — taking its value from
/// `args`. Returns `Ok(false)` for any other flag, and an error naming
/// the flag when its value is missing or does not parse.
pub fn workload_flag(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
    cfg: &mut WorkloadConfig,
) -> Result<bool, String> {
    match flag {
        "--target" => {
            let value = args
                .next()
                .ok_or("--target needs a branch count (e.g. 2m, 100m, 1b)")?;
            cfg.target_branches = parse_target(&value)?;
        }
        "--seed" => {
            cfg.seed = args
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("--seed needs an unsigned integer")?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_suffixed_targets() {
        assert_eq!(parse_target("200000"), Ok(200_000));
        assert_eq!(parse_target("200_000"), Ok(200_000));
        assert_eq!(parse_target("500k"), Ok(500_000));
        assert_eq!(parse_target("2m"), Ok(2_000_000));
        assert_eq!(parse_target("100M"), Ok(100_000_000));
        assert_eq!(parse_target("1b"), Ok(1_000_000_000));
        assert_eq!(parse_target(" 10m "), Ok(10_000_000));
    }

    #[test]
    fn workload_flags_apply_or_explain_what_they_need() {
        let mut cfg = WorkloadConfig::default();
        let mut args = ["2m", "7", "x"].map(String::from).into_iter();
        assert_eq!(workload_flag("--target", &mut args, &mut cfg), Ok(true));
        assert_eq!(workload_flag("--seed", &mut args, &mut cfg), Ok(true));
        assert_eq!((cfg.target_branches, cfg.seed), (2_000_000, 7));
        assert_eq!(workload_flag("--jobs", &mut args, &mut cfg), Ok(false));
        let err = workload_flag("--seed", &mut args, &mut cfg).unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
        let err = workload_flag("--target", &mut args, &mut cfg).unwrap_err();
        assert!(err.contains("needs a branch count"), "{err}");
    }

    #[test]
    fn rejects_garbage_zero_and_absurd_targets() {
        for bad in ["", "m", "12q", "1.5m", "-3", "10mm"] {
            assert!(parse_target(bad).is_err(), "{bad:?} must be rejected");
        }
        assert!(parse_target("0").unwrap_err().contains("positive"));
        assert_eq!(parse_target("100b"), Ok(100_000_000_000));
        for absurd in ["101b", "999999b", "18446744073709551615b"] {
            let err = parse_target(absurd).unwrap_err();
            assert!(err.contains("100b"), "{absurd}: {err}");
        }
    }
}
