//! Graph file I/O.
//!
//! Writes the Metis `.graph` format (used by DIMACS10 and all Metis
//! tools), which [`crate::stream`] reads back, and reads the DIMACS9
//! shortest-path `.gr` format (used by the USA-roads input) and Metis
//! `.part` partition files. This lets the benchmark harness run on the
//! paper's real inputs when the files are available, while the
//! generators in [`crate::gen`] provide offline stand-ins.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vid};
use std::collections::hash_map::{Entry, HashMap};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// I/O error with line context.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    /// A malformed file: `line` is the 1-based file line at fault, or
    /// `None` for an error of the whole file (a count that does not add
    /// up, a missing header).
    Parse {
        line: Option<usize>,
        msg: String,
    },
    /// The header declares more edges than 32-bit CSR offsets can address
    /// (they run to `2m`).
    TooLarge {
        m: usize,
        max: usize,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line: Some(line), msg } => {
                write!(f, "parse error at line {line}: {msg}")
            }
            IoError::Parse { line: None, msg } => write!(f, "parse error: {msg}"),
            IoError::TooLarge { m, max } => {
                write!(f, "graph has {m} edges but 32-bit CSR offsets address at most {max}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// A parse error at 1-based file line `line`.
fn line_err(line: usize, msg: impl std::fmt::Display) -> IoError {
    IoError::Parse { line: Some(line), msg: msg.to_string() }
}

/// [`line_err`] as a result.
pub(crate) fn parse_err<T>(line: usize, msg: impl std::fmt::Display) -> Result<T, IoError> {
    Err(line_err(line, msg))
}

/// An error of the whole file, not of one line.
pub(crate) fn file_err<T>(msg: impl std::fmt::Display) -> Result<T, IoError> {
    Err(IoError::Parse { line: None, msg: msg.to_string() })
}

/// Hard cap on header-declared sizes: vertex ids must fit [`Vid`] and the
/// CSR adjacency offsets (`2m`) must fit [`Vid`], so a corrupt — or merely
/// too-big — header fails with a typed error instead of an assert or a
/// giant allocation downstream. An over-cap edge count gets the dedicated
/// [`IoError::TooLarge`].
const MAX_N: usize = Vid::MAX as usize;
const MAX_M: usize = (Vid::MAX / 2) as usize;

pub(crate) fn check_header_dims(line: usize, n: usize, m: usize) -> Result<(), IoError> {
    if n > MAX_N {
        return parse_err(line, format!("vertex count {n} exceeds the supported {MAX_N}"));
    }
    if m > MAX_M {
        return Err(IoError::TooLarge { m, max: MAX_M });
    }
    Ok(())
}

/// Write a graph in Metis `.graph` format (always writes both vertex and
/// edge weights; fmt = 011).
pub fn write_metis<W: Write>(g: &CsrGraph, w: W) -> Result<(), IoError> {
    let mut out = BufWriter::new(w);
    writeln!(out, "{} {} 011", g.n(), g.m())?;
    for u in 0..g.n() as Vid {
        write!(out, "{}", g.vwgt[u as usize])?;
        for (v, ew) in g.edges(u) {
            write!(out, " {} {}", v + 1, ew)?;
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

/// Write a Metis `.graph` file to disk.
pub fn write_metis_file(g: &CsrGraph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let f = std::fs::File::create(path)?;
    write_metis(g, f)
}

/// Write a partition vector in the Metis `.part` format: one partition
/// id per line, in vertex order.
pub fn write_partition<W: Write>(part: &[u32], w: W) -> Result<(), IoError> {
    let mut out = BufWriter::new(w);
    for p in part {
        writeln!(out, "{p}")?;
    }
    out.flush()?;
    Ok(())
}

/// Read a Metis `.part` file.
pub fn read_partition<R: BufRead>(r: R) -> Result<Vec<u32>, IoError> {
    read_partition_checked(r, None)
}

/// Read a Metis `.part` file, optionally validating every label against
/// an expected partition count: with `expect_k = Some(k)` a label outside
/// `0..k` is a parse error at its line instead of a bad partition that
/// surfaces later as a metrics panic or a silently empty part.
pub fn read_partition_checked<R: BufRead>(
    r: R,
    expect_k: Option<u32>,
) -> Result<Vec<u32>, IoError> {
    let mut part = Vec::new();
    for (no, line) in r.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        let p = t.parse::<u32>().map_err(|e| line_err(no + 1, e))?;
        if let Some(k) = expect_k {
            if p >= k {
                return parse_err(no + 1, format!("partition id {p} out of 0..{k}"));
            }
        }
        part.push(p);
    }
    Ok(part)
}

/// Read a DIMACS9 `.gr` file (`p sp n m` header, `a u v w` arc lines,
/// 1-based ids). The input contract is the METIS reader's: every
/// undirected edge is listed as both of its arcs with one weight, and
/// the header's `m` counts the arcs. Rejected, naming the line at fault:
/// a self-loop, an arc read twice in the same direction (the second
/// line), an arc whose reverse was read with another weight, and an arc
/// whose reverse never appears (the first such line). An arc count that
/// differs from `m` is a whole-file error. Nothing is repaired.
pub fn read_dimacs9<R: BufRead>(r: R) -> Result<CsrGraph, IoError> {
    /// One undirected pair: its weight, the line and direction of its
    /// first arc, and whether the reverse arc has been read.
    struct Pair {
        w: u32,
        line: usize,
        up: bool,
        mirrored: bool,
    }
    let (mut n, mut m, mut arcs) = (0usize, 0usize, 0usize);
    let mut b: Option<GraphBuilder> = None;
    let mut seen: HashMap<(Vid, Vid), Pair> = HashMap::new();
    for (no, l) in r.lines().enumerate() {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('c') {
            continue;
        }
        if let Some(rest) = t.strip_prefix("p ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() < 3 || parts[0] != "sp" {
                return parse_err(no + 1, "expected `p sp n m`");
            }
            n = parts[1].parse().map_err(|e| line_err(no + 1, e))?;
            m = parts[2].parse().map_err(|e| line_err(no + 1, e))?;
            check_header_dims(no + 1, n, m)?;
            b = Some(GraphBuilder::new(n));
        } else if let Some(rest) = t.strip_prefix("a ") {
            let builder = match b.as_mut() {
                Some(x) => x,
                None => return parse_err(no + 1, "arc before problem line"),
            };
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() < 3 {
                return parse_err(no + 1, "expected `a u v w`");
            }
            let u: usize = parts[0].parse().map_err(|e| line_err(no + 1, e))?;
            let v: usize = parts[1].parse().map_err(|e| line_err(no + 1, e))?;
            let w: u32 = parts[2].parse().map_err(|e| line_err(no + 1, e))?;
            if u == 0 || v == 0 || u > n || v > n {
                return parse_err(no + 1, "vertex id out of range");
            }
            if u == v {
                return parse_err(no + 1, format!("self-loop on vertex {u}"));
            }
            arcs += 1;
            let (a, c) = ((u - 1) as Vid, (v - 1) as Vid);
            match seen.entry((a.min(c), a.max(c))) {
                Entry::Vacant(e) => {
                    builder.add_edge(a, c, w);
                    e.insert(Pair { w, line: no + 1, up: a < c, mirrored: false });
                }
                Entry::Occupied(mut e) => {
                    let pair = e.get_mut();
                    if pair.mirrored || pair.up == (a < c) {
                        return parse_err(no + 1, format!("arc {u} {v} read twice"));
                    }
                    if pair.w != w {
                        let first = pair.w;
                        let msg = format!(
                            "arc {u} {v} has weight {w}, but the pair was read with {first}"
                        );
                        return parse_err(no + 1, msg);
                    }
                    pair.mirrored = true;
                }
            }
        } else {
            return parse_err(no + 1, format!("unrecognized line: {t}"));
        }
    }
    let Some(builder) = b else { return file_err("no problem line") };
    if arcs != m {
        return file_err(format!("header said {m} arcs, file lists {arcs}"));
    }
    let one_sided = seen.iter().filter(|(_, p)| !p.mirrored).min_by_key(|(_, p)| p.line);
    if let Some((&(lo, hi), p)) = one_sided {
        let (u, v) = if p.up { (lo + 1, hi + 1) } else { (hi + 1, lo + 1) };
        return parse_err(p.line, format!("arc {u} {v} has no reverse arc {v} {u}"));
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn dimacs9_reads_both_arcs_of_every_edge() {
        let txt =
            "c USA roads excerpt\np sp 3 6\na 1 2 7\na 2 1 7\na 2 3 5\na 1 3 2\na 3 2 5\na 3 1 2\n";
        let g = read_dimacs9(Cursor::new(txt)).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(crate::metrics::edge_cut(&g, &[0, 1, 1]), 9); // edges (0,1)w7 + (0,2)w2
    }

    #[test]
    fn dimacs9_rejects_one_sided_repeated_and_miscounted_arcs() {
        let err_of = |txt: &str| match read_dimacs9(Cursor::new(txt)) {
            Err(IoError::Parse { line, msg }) => (line, msg),
            other => panic!("expected a parse error, got {other:?}"),
        };
        // (2,3) and (1,3) are listed one way only: the first is named;
        // this file used to load with both arcs symmetrized
        let (line, msg) =
            err_of("c USA roads excerpt\np sp 3 4\na 1 2 7\na 2 1 7\na 2 3 5\na 1 3 2\n");
        assert_eq!(line, Some(5), "{msg}");
        assert!(msg.contains("arc 2 3 has no reverse arc 3 2"), "{msg}");
        // the same arc twice, with the reverse arc between them
        let (line, msg) = err_of("p sp 2 3\na 1 2 5\na 2 1 5\na 1 2 5\n");
        assert_eq!(line, Some(4), "{msg}");
        assert!(msg.contains("read twice"), "{msg}");
        // the same arc twice before its reverse
        let (line, _) = err_of("p sp 2 3\na 2 1 5\na 2 1 5\na 1 2 5\n");
        assert_eq!(line, Some(3));
        // a count other than the header's names no line
        let (line, msg) = err_of("p sp 2 4\na 1 2 5\na 2 1 5\n");
        assert_eq!(line, None, "{msg}");
        assert!(msg.contains("header said 4 arcs, file lists 2"), "{msg}");
    }

    #[test]
    fn dimacs9_rejects_self_loops_and_conflicting_weights() {
        let line_of = |txt: &str| match read_dimacs9(Cursor::new(txt)) {
            Err(IoError::Parse { line, msg }) => (line, msg),
            other => panic!("expected a parse error, got {other:?}"),
        };
        // the pair (1,2) is read as 5, then as 9: the first weight used to win
        let (line, msg) = line_of("p sp 2 2\na 1 2 5\na 2 1 9\na 1 1 4\n");
        assert_eq!(line, Some(3), "{msg}");
        assert!(msg.contains("weight 9") && msg.contains("with 5"), "{msg}");
        // the self-loop used to be dropped
        let (line, msg) = line_of("p sp 2 2\na 1 2 5\na 2 1 5\na 1 1 4\n");
        assert_eq!(line, Some(4), "{msg}");
        assert!(msg.contains("self-loop"), "{msg}");
    }

    #[test]
    fn dimacs9_rejects_arc_before_header() {
        assert!(read_dimacs9(Cursor::new("a 1 2 3\n")).is_err());
        // a file with no problem line names no line
        let err = read_dimacs9(Cursor::new("c only a comment\n")).unwrap_err();
        assert_eq!(err.to_string(), "parse error: no problem line");
    }

    #[test]
    fn partition_roundtrip() {
        let part = vec![0u32, 3, 1, 1, 2, 0];
        let mut buf = Vec::new();
        write_partition(&part, &mut buf).unwrap();
        let back = read_partition(Cursor::new(buf)).unwrap();
        assert_eq!(back, part);
    }

    #[test]
    fn partition_rejects_garbage() {
        assert!(read_partition(Cursor::new("1\nx\n")).is_err());
        assert_eq!(read_partition(Cursor::new("")).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn partition_expect_k_validates_labels() {
        let ok = read_partition_checked(Cursor::new("0\n2\n1\n"), Some(3)).unwrap();
        assert_eq!(ok, vec![0, 2, 1]);
        let err = read_partition_checked(Cursor::new("0\n3\n1\n"), Some(3)).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, Some(2)),
            other => panic!("unexpected: {other}"),
        }
    }
}
