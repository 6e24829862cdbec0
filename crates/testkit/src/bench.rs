//! A `std::time::Instant` bench harness: warmup, N timed iterations,
//! robust summary statistics, and machine-readable JSON output.
//!
//! Replaces criterion for the `crates/bench/benches/*` targets. Each
//! bench binary builds a [`BenchSuite`], registers closures with
//! [`BenchSuite::run`], and calls [`BenchSuite::finish`], which prints a
//! human-readable table and writes `BENCH_<suite>.json` so timing
//! trajectories can be tracked across commits.
//!
//! Environment knobs:
//! * `GPM_BENCH_WARMUP` — warmup iterations per bench (default 3).
//! * `GPM_BENCH_ITERS` — timed iterations per bench (default 15).
//! * `GPM_BENCH_SCALE` — input-size multiplier benches apply via
//!   [`scaled`] (default 1.0; CI uses a small fraction for a smoke run).
//! * `GPM_BENCH_DIR` — directory for the JSON file (default `.`, which
//!   under `cargo bench` is the package root, `crates/bench`).

use std::io::Write as _;
use std::time::Instant;

pub use std::hint::black_box;

/// Summary of one benchmark: iteration wall times in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark id, e.g. `"serial_matching/hem/5000"`.
    pub name: String,
    /// Timed iterations the stats summarize.
    pub iters: usize,
    pub median_ns: u128,
    pub p10_ns: u128,
    pub p90_ns: u128,
    pub min_ns: u128,
    pub max_ns: u128,
    pub mean_ns: u128,
}

/// A named collection of benchmarks sharing warmup/iteration settings.
pub struct BenchSuite {
    suite: String,
    warmup: usize,
    iters: usize,
    records: Vec<BenchRecord>,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Apply the `GPM_BENCH_SCALE` multiplier to an input size (min 16, so
/// scaled-down smoke runs still exercise the real code paths).
pub fn scaled(n: usize) -> usize {
    let factor: f64 =
        std::env::var("GPM_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    ((n as f64 * factor) as usize).max(16)
}

fn percentile(sorted: &[u128], q: f64) -> u128 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

impl BenchSuite {
    /// A suite named `suite`, reading warmup/iteration counts from the
    /// environment.
    pub fn new(suite: &str) -> Self {
        BenchSuite {
            suite: suite.to_string(),
            warmup: env_usize("GPM_BENCH_WARMUP", 3),
            iters: env_usize("GPM_BENCH_ITERS", 15),
            records: Vec::new(),
        }
    }

    /// Time `f`: `warmup` untimed runs, then `iters` timed runs. The
    /// closure's return value is passed through [`black_box`] so the
    /// computation cannot be optimized away.
    pub fn run<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchRecord {
        self.run_with_setup(name, || (), |_| f())
    }

    /// [`run`](Self::run) with an untimed `setup` before every run: `f`
    /// gets the fresh input by reference, and the input is dropped after
    /// the clock stops — for measuring the first use of a cold structure.
    pub fn run_with_setup<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(&mut S) -> T,
    ) -> &BenchRecord {
        for _ in 0..self.warmup {
            black_box(f(&mut setup()));
        }
        let iters = self.iters.max(1);
        let mut samples: Vec<u128> = Vec::with_capacity(iters);
        for _ in 0..iters {
            let mut input = setup();
            let t0 = Instant::now();
            black_box(f(&mut input));
            samples.push(t0.elapsed().as_nanos());
        }
        samples.sort_unstable();
        let rec = BenchRecord {
            name: name.to_string(),
            iters,
            median_ns: percentile(&samples, 0.5),
            p10_ns: percentile(&samples, 0.1),
            p90_ns: percentile(&samples, 0.9),
            min_ns: samples[0],
            max_ns: samples[iters - 1],
            mean_ns: samples.iter().sum::<u128>() / iters as u128,
        };
        eprintln!(
            "{:<40} median {:>12} ns   p10 {:>12}   p90 {:>12}   ({} iters)",
            rec.name, rec.median_ns, rec.p10_ns, rec.p90_ns, rec.iters
        );
        self.records.push(rec);
        self.records.last().unwrap()
    }

    /// Record a single externally measured scalar (a counter, a rate, a
    /// specific percentile) as a degenerate record whose stats all equal
    /// `value` — schema-valid by construction, so counters ride in the
    /// same `BENCH_<suite>.json` document as timing distributions.
    pub fn record_value(&mut self, name: &str, value: u128) -> &BenchRecord {
        let rec = BenchRecord {
            name: name.to_string(),
            iters: 1,
            median_ns: value,
            p10_ns: value,
            p90_ns: value,
            min_ns: value,
            max_ns: value,
            mean_ns: value,
        };
        self.records.push(rec);
        self.records.last().unwrap()
    }

    /// The JSON document `finish` writes (exposed for tests).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"suite\": \"{}\",\n", self.suite));
        s.push_str(&format!("  \"warmup\": {},\n", self.warmup));
        s.push_str(&format!("  \"iters\": {},\n", self.iters));
        s.push_str("  \"benches\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"p10_ns\": {}, \
                 \"p90_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}}}{}\n",
                r.name,
                r.iters,
                r.median_ns,
                r.p10_ns,
                r.p90_ns,
                r.min_ns,
                r.max_ns,
                r.mean_ns,
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Print the summary table and write `BENCH_<suite>.json` into
    /// `GPM_BENCH_DIR` (default: current directory).
    pub fn finish(self) {
        let dir = std::env::var("GPM_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.suite));
        let json = self.to_json();
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let mut file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        file.write_all(json.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("[gpm-testkit] wrote {}", path.display());
    }
}

// ---------------------------------------------------------------------
// Bench JSON validation (used by the CI bench smoke): a hand-rolled
// structural check of the document `finish` writes, so a malformed or
// truncated BENCH_<suite>.json fails the pipeline instead of silently
// rotting. No serde — the grammar here is the small subset the writer
// above emits.
// ---------------------------------------------------------------------

/// What a valid bench JSON document contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchJsonSummary {
    pub suite: String,
    /// Names of the benches, in file order.
    pub benches: Vec<String>,
}

struct JsonCursor<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s.get(self.pos).copied().ok_or_else(|| "unexpected end of document".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' at byte {}, got '{}'",
                c as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while self.pos < self.s.len() && self.s[self.pos] != b'"' {
            if self.s[self.pos] == b'\\' {
                return Err(format!("escape sequences unsupported at byte {}", self.pos));
            }
            self.pos += 1;
        }
        if self.pos >= self.s.len() {
            return Err("unterminated string".into());
        }
        let out = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
        self.pos += 1;
        Ok(out)
    }

    fn number(&mut self) -> Result<u128, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Validate the schema of a `BENCH_<suite>.json` document: top-level
/// `suite`/`warmup`/`iters`/`benches` keys, and for every bench record
/// the full stats key set with internally consistent values
/// (`min <= p10 <= median <= p90 <= max`, `iters > 0`, non-empty unique
/// names). Returns the suite name and bench names on success.
pub fn validate_bench_json(doc: &str) -> Result<BenchJsonSummary, String> {
    let mut c = JsonCursor { s: doc.as_bytes(), pos: 0 };
    c.expect(b'{')?;
    let mut suite = None;
    let mut names: Vec<String> = Vec::new();
    let mut saw = [false; 4]; // suite, warmup, iters, benches
    loop {
        let key = c.string()?;
        c.expect(b':')?;
        match key.as_str() {
            "suite" => {
                suite = Some(c.string()?);
                saw[0] = true;
            }
            "warmup" => {
                c.number()?;
                saw[1] = true;
            }
            "iters" => {
                c.number()?;
                saw[2] = true;
            }
            "benches" => {
                saw[3] = true;
                c.expect(b'[')?;
                if c.peek()? == b']' {
                    c.pos += 1;
                } else {
                    loop {
                        names.push(validate_bench_record(&mut c)?);
                        match c.peek()? {
                            b',' => c.pos += 1,
                            b']' => {
                                c.pos += 1;
                                break;
                            }
                            other => {
                                return Err(format!("expected ',' or ']', got '{}'", other as char))
                            }
                        }
                    }
                }
            }
            other => return Err(format!("unknown top-level key \"{other}\"")),
        }
        match c.peek()? {
            b',' => c.pos += 1,
            b'}' => {
                c.pos += 1;
                break;
            }
            other => return Err(format!("expected ',' or '}}', got '{}'", other as char)),
        }
    }
    c.skip_ws();
    if c.pos != c.s.len() {
        return Err(format!("trailing bytes after document at {}", c.pos));
    }
    for (i, k) in ["suite", "warmup", "iters", "benches"].iter().enumerate() {
        if !saw[i] {
            return Err(format!("missing top-level key \"{k}\""));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for n in &names {
        if n.is_empty() {
            return Err("empty bench name".into());
        }
        if !seen.insert(n.clone()) {
            return Err(format!("duplicate bench name \"{n}\""));
        }
    }
    Ok(BenchJsonSummary { suite: suite.unwrap(), benches: names })
}

fn validate_bench_record(c: &mut JsonCursor) -> Result<String, String> {
    const KEYS: [&str; 8] =
        ["name", "iters", "median_ns", "p10_ns", "p90_ns", "min_ns", "max_ns", "mean_ns"];
    c.expect(b'{')?;
    let mut name = None;
    let mut vals = [None::<u128>; 8];
    loop {
        let key = c.string()?;
        c.expect(b':')?;
        let slot = KEYS
            .iter()
            .position(|&k| k == key)
            .ok_or_else(|| format!("unknown bench key \"{key}\""))?;
        if slot == 0 {
            name = Some(c.string()?);
        } else {
            vals[slot] = Some(c.number()?);
        }
        match c.peek()? {
            b',' => c.pos += 1,
            b'}' => {
                c.pos += 1;
                break;
            }
            other => return Err(format!("expected ',' or '}}', got '{}'", other as char)),
        }
    }
    let name = name.ok_or("bench record missing \"name\"")?;
    for (i, k) in KEYS.iter().enumerate().skip(1) {
        if vals[i].is_none() {
            return Err(format!("bench \"{name}\" missing \"{k}\""));
        }
    }
    let (iters, median, p10, p90, min, max) = (
        vals[1].unwrap(),
        vals[2].unwrap(),
        vals[3].unwrap(),
        vals[4].unwrap(),
        vals[5].unwrap(),
        vals[6].unwrap(),
    );
    if iters == 0 {
        return Err(format!("bench \"{name}\": iters == 0"));
    }
    if !(min <= p10 && p10 <= median && median <= p90 && p90 <= max) {
        return Err(format!(
            "bench \"{name}\": inconsistent stats min={min} p10={p10} median={median} p90={p90} max={max}"
        ));
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_expected_stats() {
        let mut suite = BenchSuite { suite: "t".into(), warmup: 0, iters: 5, records: Vec::new() };
        let mut acc = 0u64;
        let rec = suite.run("noop", || {
            acc = acc.wrapping_add(1);
            acc
        });
        assert_eq!(rec.iters, 5);
        assert!(rec.min_ns <= rec.median_ns);
        assert!(rec.median_ns <= rec.max_ns);
        assert!(rec.p10_ns <= rec.p90_ns);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut suite = BenchSuite { suite: "j".into(), warmup: 0, iters: 2, records: Vec::new() };
        suite.run("a", || 1 + 1);
        suite.run("b", || 2 + 2);
        let json = suite.to_json();
        assert!(json.contains("\"suite\": \"j\""));
        assert!(json.contains("\"name\": \"a\""));
        assert_eq!(json.matches("median_ns").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [1u128, 2, 3, 4, 100];
        assert_eq!(percentile(&xs, 0.0), 1);
        assert_eq!(percentile(&xs, 0.5), 3);
        assert_eq!(percentile(&xs, 1.0), 100);
    }

    #[test]
    fn external_records_validate_and_summarize() {
        let mut suite = BenchSuite { suite: "x".into(), warmup: 0, iters: 1, records: Vec::new() };
        suite.run("timed", || 1 + 1);
        let rec = suite.record_value("scale/grid/csr_bytes", 83);
        assert_eq!(rec.iters, 1);
        assert_eq!((rec.min_ns, rec.p10_ns, rec.median_ns), (83, 83, 83));
        assert_eq!((rec.p90_ns, rec.max_ns, rec.mean_ns), (83, 83, 83));
        let summary = validate_bench_json(&suite.to_json()).unwrap();
        assert_eq!(summary.benches, vec!["timed".to_string(), "scale/grid/csr_bytes".to_string()]);
    }

    #[test]
    fn validator_accepts_what_finish_writes() {
        let mut suite = BenchSuite { suite: "v".into(), warmup: 0, iters: 3, records: Vec::new() };
        suite.run("fast/1", || 1 + 1);
        suite.run("slow/2", || (0..100u64).sum::<u64>());
        let summary = validate_bench_json(&suite.to_json()).unwrap();
        assert_eq!(summary.suite, "v");
        assert_eq!(summary.benches, vec!["fast/1".to_string(), "slow/2".to_string()]);
        // empty suites validate too
        let empty = BenchSuite { suite: "e".into(), warmup: 0, iters: 1, records: Vec::new() };
        assert_eq!(validate_bench_json(&empty.to_json()).unwrap().benches.len(), 0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let mut suite = BenchSuite { suite: "m".into(), warmup: 0, iters: 2, records: Vec::new() };
        suite.run("a", || 1);
        let good = suite.to_json();
        // truncation
        assert!(validate_bench_json(&good[..good.len() / 2]).is_err());
        // missing key
        assert!(validate_bench_json(&good.replace("\"iters\": 2,\n", "")).is_err());
        // duplicate names
        let mut dup = BenchSuite { suite: "d".into(), warmup: 0, iters: 1, records: Vec::new() };
        dup.run("x", || 1);
        dup.run("x", || 2);
        assert!(validate_bench_json(&dup.to_json()).unwrap_err().contains("duplicate"));
        // inconsistent stats
        let mut bad = BenchSuite { suite: "b".into(), warmup: 0, iters: 1, records: Vec::new() };
        bad.run("y", || 1);
        bad.records[0].min_ns = bad.records[0].max_ns + 1;
        assert!(validate_bench_json(&bad.to_json()).unwrap_err().contains("inconsistent"));
        // not json at all
        assert!(validate_bench_json("hello").is_err());
    }

    #[test]
    fn scaled_floors_at_16() {
        // Without GPM_BENCH_SCALE set this is the identity (above 16).
        assert_eq!(scaled(10_000).max(16), scaled(10_000));
        assert!(scaled(1) >= 1);
    }
}
