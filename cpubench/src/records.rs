//! Where a run leaves its files, and the cross-run determinism record.
//!
//! Every round's digest (its exact counts and score bits) is stored next
//! to the executable, keyed by the executable's identity, the workload and
//! the seed. A later run of the same build and seed compares the rounds
//! both served: any difference is a failed check.

use crate::round::Checks;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::UNIX_EPOCH;

/// The directory holding the running executable (the build's output
/// directory): spans, spool files and records all stay inside it.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent().expect("the executable lives in a directory").to_path_buf()
}

/// A key that changes whenever the executable is rebuilt.
fn build_stamp() -> String {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let meta = std::fs::metadata(&exe).expect("the running executable exists");
    let mtime = meta.modified().ok().and_then(|t| t.duration_since(UNIX_EPOCH).ok());
    format!("{}-{}", mtime.map(|d| d.as_nanos()).unwrap_or(0), meta.len())
}

fn parse(text: &str) -> BTreeMap<u64, u64> {
    text.lines()
        .filter_map(|line| {
            let (round, digest) = line.split_once(' ')?;
            Some((round.parse().ok()?, u64::from_str_radix(digest, 16).ok()?))
        })
        .collect()
}

/// Compares this run's round digests with the stored ones of earlier runs
/// of the same build, workload and seed, then stores the union.
pub fn compare_and_store(workload: &str, seed: u64, digests: &[(u64, u64)], checks: &mut Checks) {
    let dir = out_dir().join("cpubench-records").join(build_stamp());
    let path = dir.join(format!("{workload}-{seed}.txt"));
    let mut stored = std::fs::read_to_string(&path).map(|t| parse(&t)).unwrap_or_default();
    let repeated = digests.iter().filter(|(r, _)| stored.contains_key(r)).count();
    let mismatched: Vec<u64> = digests
        .iter()
        .filter(|(r, d)| stored.get(r).is_some_and(|s| s != d))
        .map(|(r, _)| *r)
        .collect();
    println!("# determinism: {repeated} rounds compared with earlier runs of seed {seed}");
    checks.add(
        format!("exact counts and scores repeat across runs of seed {seed} (rounds {mismatched:?} differ)"),
        mismatched.is_empty(),
    );
    for &(r, d) in digests {
        stored.entry(r).or_insert(d);
    }
    let text: String = stored.iter().map(|(r, d)| format!("{r} {d:016x}\n")).collect();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("cpubench: could not store round digests at {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_round_trip() {
        let text = "0 00000000000000ff\n3 0123456789abcdef\n";
        let parsed = parse(text);
        assert_eq!(parsed[&0], 0xff);
        assert_eq!(parsed[&3], 0x0123_4567_89ab_cdef);
    }
}
