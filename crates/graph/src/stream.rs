//! The METIS `.graph` reader: a streaming two-pass loader.
//!
//! The loader parses the raw bytes in place (memory-mapped via
//! [`crate::mmap::FileBytes`] or any `&[u8]`) with a zero-copy scanner in
//! two passes over newline-aligned chunks on the [`gpm_pool`] executor,
//! and allocates little beyond the CSR it returns:
//!
//! 1. **Count** — each chunk parses its vertex lines, validating tokens
//!    and recording per-line degree and vertex weight. Chunk results are
//!    stitched in chunk order (a chunk's first vertex id is the count of
//!    data lines before it — no global ids are needed inside the pass),
//!    then one prefix sum turns degrees into `xadj`, exactly the counting
//!    layout `coarsen_ws` contraction uses.
//! 2. **Scatter** — each chunk re-scans its byte range and writes
//!    `(neighbor, weight)` straight into its disjoint window of the
//!    exactly-sized `adjncy`/`adjwgt` arrays (a chunk's rows are
//!    contiguous, so the final arrays split cleanly with `split_at_mut`).
//!
//! A finalize pass then sorts each row by neighbor id (edge-balanced row
//! chunks via [`gpm_pool::chunks_by_prefix`]) and verifies the file is
//! canonical: no duplicate neighbors, no self-loops, and every edge
//! mirrored with an equal weight. Every file [`crate::io::write_metis`]
//! writes reads back as exactly the graph it was written from (pinned by
//! `tests/prop_io.rs`); a file that is not canonical is rejected with a
//! typed parse error, never repaired into a different graph. Tokens are
//! scanned as ASCII (the format is ASCII; `\r` counts as whitespace, so
//! Windows line endings parse identically).

use crate::csr::{CsrGraph, Vid};
use crate::io::{check_header_dims, file_err, parse_err, IoError};
use crate::mmap::FileBytes;
use std::path::Path;
use std::sync::Mutex;

/// Minimum bytes per parse chunk: below this, chunk bookkeeping costs
/// more than the parallelism returns.
const MIN_CHUNK: usize = 64 << 10;

#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// Parse an unsigned ASCII integer token (optional leading `+`, like
/// `str::parse::<u64>`). `None` on empty, non-digit, or overflow.
#[inline]
fn parse_u64(tok: &[u8]) -> Option<u64> {
    let tok = match tok {
        [b'+', rest @ ..] => rest,
        t => t,
    };
    if tok.is_empty() {
        return None;
    }
    let mut x: u64 = 0;
    for &b in tok {
        if !b.is_ascii_digit() {
            return None;
        }
        x = x.checked_mul(10)?.checked_add((b - b'0') as u64)?;
    }
    Some(x)
}

/// Iterator over ASCII-whitespace-separated tokens of one line.
struct Tokens<'a> {
    line: &'a [u8],
    pos: usize,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a [u8]) -> Self {
        Tokens { line, pos: 0 }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];
    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        while self.pos < self.line.len() && is_space(self.line[self.pos]) {
            self.pos += 1;
        }
        if self.pos >= self.line.len() {
            return None;
        }
        let start = self.pos;
        while self.pos < self.line.len() && !is_space(self.line[self.pos]) {
            self.pos += 1;
        }
        Some(&self.line[start..self.pos])
    }
}

/// A line classified by its first non-whitespace byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LineKind {
    Blank,
    Comment,
    Data,
}

#[inline]
fn classify(line: &[u8]) -> LineKind {
    for &b in line {
        if is_space(b) {
            continue;
        }
        return if b == b'%' { LineKind::Comment } else { LineKind::Data };
    }
    LineKind::Blank
}

/// Iterate the lines of a `\n`-delimited byte region. Unlike a bare
/// `split(b'\n')` this does not yield a phantom empty line after a
/// trailing newline, so line numbers match the file's.
fn lines(region: &[u8]) -> impl Iterator<Item = &[u8]> {
    let region = match region.last() {
        Some(b'\n') => &region[..region.len() - 1],
        _ => region,
    };
    region.split(|&b| b == b'\n')
}

/// The parsed `.graph` header plus the location of the data region.
struct MetisHeader {
    n: usize,
    m: usize,
    has_vwgt: bool,
    has_ewgt: bool,
    /// Byte offset of the first line after the header.
    data_start: usize,
    /// 1-based file line number of the first line after the header.
    data_first_line: usize,
}

/// Find and parse the header line (comments and blank lines may
/// precede it).
fn metis_header(bytes: &[u8]) -> Result<MetisHeader, IoError> {
    let mut pos = 0usize;
    let mut line_no = 0usize;
    while pos < bytes.len() {
        let rel = bytes[pos..].iter().position(|&b| b == b'\n');
        let end = rel.map_or(bytes.len(), |o| pos + o);
        let line = &bytes[pos..end];
        let next = rel.map_or(bytes.len(), |_| end + 1);
        line_no += 1;
        match classify(line) {
            LineKind::Blank | LineKind::Comment => pos = next,
            LineKind::Data => {
                let toks: Vec<&[u8]> = Tokens::new(line).collect();
                if toks.len() < 2 {
                    return parse_err(line_no, "header needs at least `n m`");
                }
                let n = match parse_u64(toks[0]).and_then(|x| usize::try_from(x).ok()) {
                    Some(n) => n,
                    None => return parse_err(line_no, "invalid vertex count"),
                };
                let m = match parse_u64(toks[1]).and_then(|x| usize::try_from(x).ok()) {
                    Some(m) => m,
                    None => return parse_err(line_no, "invalid edge count"),
                };
                check_header_dims(line_no, n, m)?;
                let fmt_num = match toks.get(2) {
                    None => 0,
                    Some(t) => match parse_u64(t) {
                        Some(x) => x,
                        None => return parse_err(line_no, "bad fmt field"),
                    },
                };
                if fmt_num / 100 % 10 == 1 {
                    return parse_err(line_no, "vertex sizes (fmt 1xx) not supported");
                }
                let ncon = match toks.get(3) {
                    None => 1,
                    Some(t) => match parse_u64(t) {
                        Some(x) => x,
                        None => return parse_err(line_no, "bad ncon field"),
                    },
                };
                if ncon != 1 {
                    return parse_err(line_no, "multi-constraint graphs (ncon > 1) not supported");
                }
                return Ok(MetisHeader {
                    n,
                    m,
                    has_vwgt: fmt_num / 10 % 10 == 1,
                    has_ewgt: fmt_num % 10 == 1,
                    data_start: next,
                    data_first_line: line_no + 1,
                });
            }
        }
    }
    file_err("empty file")
}

/// Split `bytes` at `\n` boundaries into roughly equal chunks sized for
/// the pool. Returns byte ranges; every line lies entirely in one chunk.
fn chunk_ranges(bytes: &[u8], parts: usize) -> Vec<(usize, usize)> {
    let len = bytes.len();
    if len == 0 {
        return Vec::new();
    }
    let target = (len / parts.max(1)).max(MIN_CHUNK);
    let mut out = Vec::new();
    let mut lo = 0usize;
    while lo < len {
        let mut hi = (lo + target).min(len);
        if hi < len {
            match bytes[hi..].iter().position(|&b| b == b'\n') {
                Some(off) => hi += off + 1,
                None => hi = len,
            }
        }
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Per-data-line metadata from the counting pass.
struct RowMeta {
    deg: Vid,
    vwgt: u32,
    blank: bool,
}

/// Counting-pass result of one chunk.
struct ChunkCount {
    /// All lines in the chunk (comments included) — for line numbering.
    total_lines: usize,
    /// One entry per non-comment line, in order.
    rows: Vec<RowMeta>,
}

/// Scan one chunk: per data line, count neighbor tokens (and parse the
/// vertex weight). Errors carry the 1-based chunk-local line index.
fn count_chunk(chunk: &[u8], hdr: &MetisHeader) -> Result<ChunkCount, (usize, String)> {
    let mut rows = Vec::new();
    let mut total_lines = 0usize;
    for line in lines(chunk) {
        total_lines += 1;
        match classify(line) {
            LineKind::Comment => continue,
            LineKind::Blank => rows.push(RowMeta { deg: 0, vwgt: 1, blank: true }),
            LineKind::Data => {
                let mut toks = Tokens::new(line);
                let mut vwgt = 1u32;
                if hdr.has_vwgt {
                    if let Some(t) = toks.next() {
                        match parse_u64(t).and_then(|x| u32::try_from(x).ok()) {
                            Some(w) => vwgt = w,
                            None => return Err((total_lines, "vwgt: invalid number".into())),
                        }
                    }
                }
                let mut deg = 0usize;
                while let Some(t) = toks.next() {
                    if parse_u64(t).is_none() {
                        return Err((total_lines, "neighbor: invalid number".into()));
                    }
                    if hdr.has_ewgt && toks.next().and_then(parse_u64).is_none() {
                        return Err((total_lines, "missing edge weight".into()));
                    }
                    deg += 1;
                }
                rows.push(RowMeta { deg: deg as Vid, vwgt, blank: false });
            }
        }
    }
    Ok(ChunkCount { total_lines, rows })
}

/// Scatter pass over one chunk: re-parse every neighbor token and write
/// `(v, w)` into the chunk's disjoint window of the final arrays.
fn scatter_chunk(
    chunk: &[u8],
    hdr: &MetisHeader,
    first_vertex: usize,
    adj_win: &mut [Vid],
    wgt_win: &mut [u32],
) -> Result<(), (usize, String)> {
    let n = hdr.n;
    let mut u = first_vertex;
    let mut cursor = 0usize;
    let mut local_line = 0usize;
    for line in lines(chunk) {
        local_line += 1;
        match classify(line) {
            LineKind::Comment => continue,
            LineKind::Blank => u += 1,
            LineKind::Data => {
                let mut toks = Tokens::new(line);
                if hdr.has_vwgt {
                    let _ = toks.next();
                }
                while let Some(t) = toks.next() {
                    let v1 = parse_u64(t).unwrap_or(0) as usize;
                    if v1 == 0 || v1 > n {
                        return Err((local_line, format!("neighbor {v1} out of 1..={n}")));
                    }
                    if v1 == u + 1 {
                        return Err((
                            local_line,
                            format!(
                                "self-loop on vertex {v1} (not representable; re-export the \
                                 file without self-loops)"
                            ),
                        ));
                    }
                    let w = if hdr.has_ewgt {
                        match toks.next().and_then(parse_u64).and_then(|x| u32::try_from(x).ok()) {
                            Some(w) => w,
                            None => return Err((local_line, "missing edge weight".into())),
                        }
                    } else {
                        1
                    };
                    adj_win[cursor] = (v1 - 1) as Vid;
                    wgt_win[cursor] = w;
                    cursor += 1;
                }
                u += 1;
            }
        }
    }
    debug_assert_eq!(cursor, adj_win.len(), "count pass disagrees with scatter");
    Ok(())
}

/// Serial walk to recover the 1-based file line number of non-comment
/// line `target_idx` of the data region (error paths only).
fn find_data_line(data: &[u8], first_line: usize, target_idx: usize) -> usize {
    let mut idx = 0usize;
    for (i, line) in lines(data).enumerate() {
        if classify(line) != LineKind::Comment {
            if idx == target_idx {
                return first_line + i;
            }
            idx += 1;
        }
    }
    first_line
}

/// Parse a Metis `.graph` byte buffer with the parallel two-pass scanner.
///
/// Header: `n m [fmt [ncon]]` where fmt is a 3-digit flag string: 1xx =
/// vertex sizes (unsupported), x1x = vertex weights, xx1 = edge weights.
/// Vertex ids in the file are 1-based, and every undirected edge is
/// listed in both endpoint lines with one weight. A file that is not
/// canonical (duplicate neighbors, unmirrored edges, self-loops) is a
/// typed [`IoError::Parse`], never a silently repaired graph.
pub fn read_metis_streamed(bytes: &[u8]) -> Result<CsrGraph, IoError> {
    let hdr = metis_header(bytes)?;
    let n = hdr.n;
    let data = &bytes[hdr.data_start..];
    let parts = gpm_pool::global().participants() * 4;
    let ranges = chunk_ranges(data, parts);

    // --- pass 1: parallel count ------------------------------------------
    let counted: Vec<Result<ChunkCount, (usize, String)>> = {
        let hdr = &hdr;
        gpm_pool::parallel_chunks(ranges.len(), |c| {
            let (lo, hi) = ranges[c];
            count_chunk(&data[lo..hi], hdr)
        })
    };
    let mut chunks = Vec::with_capacity(counted.len());
    let mut line_base = hdr.data_first_line;
    for res in counted {
        match res {
            Ok(cc) => {
                line_base += cc.total_lines;
                chunks.push(cc);
            }
            Err((local, msg)) => return parse_err(line_base + local - 1, msg),
        }
    }

    // --- stitch: chunk offsets, degree prefix sum, vertex weights ---------
    let mut vstart = Vec::with_capacity(chunks.len() + 1); // first row id per chunk
    let mut total_rows = 0usize;
    for cc in &chunks {
        vstart.push(total_rows);
        total_rows += cc.rows.len();
    }
    vstart.push(total_rows);
    let mut xadj = vec![0 as Vid; n + 1];
    let mut vwgt = vec![1u32; n];
    let mut total_deg: u64 = 0;
    {
        let mut u = 0usize;
        for cc in &chunks {
            for row in &cc.rows {
                if u < n {
                    xadj[u + 1] = row.deg;
                    vwgt[u] = row.vwgt;
                    total_deg += row.deg as u64;
                } else if !row.blank {
                    // trailing non-blank lines: the exact line is
                    // recovered serially
                    let lineno = find_data_line(data, hdr.data_first_line, u);
                    return parse_err(lineno, "more vertex lines than n");
                }
                u += 1;
            }
        }
        if u < n {
            return file_err(format!("expected {n} vertex lines, found {u}"));
        }
    }
    // Check the total against the header *before* the prefix sum: the
    // header cap guarantees 2m fits a `Vid`, so a passing file cannot
    // overflow the offsets (each undirected edge must appear twice).
    if total_deg != 2 * hdr.m as u64 {
        return file_err(format!(
            "header said {} edges ({} neighbor entries), file lists {total_deg} neighbor entries",
            hdr.m,
            2 * hdr.m as u64
        ));
    }
    for u in 0..n {
        xadj[u + 1] += xadj[u];
    }
    let total = total_deg as usize;

    // --- pass 2: parallel scatter into disjoint windows --------------------
    let mut adjncy = vec![0 as Vid; total];
    let mut adjwgt = vec![0u32; total];
    {
        type Window<'a> = (&'a mut [Vid], &'a mut [u32]);
        let mut windows: Vec<Mutex<Option<Window>>> = Vec::with_capacity(chunks.len());
        let mut a_rest: &mut [Vid] = &mut adjncy;
        let mut w_rest: &mut [u32] = &mut adjwgt;
        for c in 0..chunks.len() {
            let (vs, ve) = (vstart[c].min(n), vstart[c + 1].min(n));
            let span = (xadj[ve] - xadj[vs]) as usize;
            let (aw, ar) = a_rest.split_at_mut(span);
            let (ww, wr) = w_rest.split_at_mut(span);
            a_rest = ar;
            w_rest = wr;
            windows.push(Mutex::new(Some((aw, ww))));
        }
        let results: Vec<Result<(), (usize, String)>> = {
            let hdr = &hdr;
            let vstart = &vstart;
            let windows = &windows;
            gpm_pool::parallel_chunks(ranges.len(), |c| {
                let (lo, hi) = ranges[c];
                let (adj_win, wgt_win) = windows[c].lock().unwrap().take().unwrap();
                scatter_chunk(&data[lo..hi], hdr, vstart[c], adj_win, wgt_win)
            })
        };
        let mut line_base = hdr.data_first_line;
        for (c, res) in results.into_iter().enumerate() {
            if let Err((local, msg)) = res {
                return parse_err(line_base + local - 1, msg);
            }
            line_base += chunks[c].total_lines;
        }
    }

    // --- finalize: per-row sort, duplicate check, symmetry verify ----------
    let row_chunks = gpm_pool::chunks_by_prefix(
        &xadj,
        gpm_pool::grain_for(total as u64, gpm_pool::global().participants(), 4),
    );
    {
        // sort each row by neighbor id (the builder's comparator); rows
        // of a row-chunk are again a contiguous disjoint window
        type Window<'a> = (&'a mut [Vid], &'a mut [u32]);
        let mut windows: Vec<Mutex<Option<Window>>> = Vec::with_capacity(row_chunks.len());
        let mut a_rest: &mut [Vid] = &mut adjncy;
        let mut w_rest: &mut [u32] = &mut adjwgt;
        for &(lo, hi) in &row_chunks {
            let span = (xadj[hi] - xadj[lo]) as usize;
            let (aw, ar) = a_rest.split_at_mut(span);
            let (ww, wr) = w_rest.split_at_mut(span);
            a_rest = ar;
            w_rest = wr;
            windows.push(Mutex::new(Some((aw, ww))));
        }
        let dup: Vec<Option<(Vid, Vid)>> = {
            let xadj = &xadj;
            let windows = &windows;
            let row_chunks = &row_chunks;
            gpm_pool::parallel_chunks(row_chunks.len(), |c| {
                let (lo, hi) = row_chunks[c];
                let (adj_win, wgt_win) = windows[c].lock().unwrap().take().unwrap();
                let base = xadj[lo] as usize;
                let mut scratch: Vec<(Vid, u32)> = Vec::new();
                for u in lo..hi {
                    let (s, e) = (xadj[u] as usize - base, xadj[u + 1] as usize - base);
                    scratch.clear();
                    scratch
                        .extend(adj_win[s..e].iter().copied().zip(wgt_win[s..e].iter().copied()));
                    scratch.sort_unstable_by_key(|&(v, _)| v);
                    for (i, &(v, w)) in scratch.iter().enumerate() {
                        if i > 0 && scratch[i - 1].0 == v {
                            return Some((u as Vid, v));
                        }
                        adj_win[s + i] = v;
                        wgt_win[s + i] = w;
                    }
                }
                None
            })
        };
        if let Some((u, v)) = dup.into_iter().flatten().next() {
            return parse_err(
                find_data_line(data, hdr.data_first_line, u as usize),
                format!(
                    "duplicate neighbor {} in the list of vertex {} (re-export the file with \
                     merged edges)",
                    v + 1,
                    u + 1
                ),
            );
        }
    }
    {
        // symmetry + weight verification: every (u, v, w) must appear
        // mirrored as (v, u, w); rows are sorted, so binary search
        let bad: Vec<Option<(usize, Vid)>> = {
            let xadj = &xadj;
            let adjncy = &adjncy;
            let adjwgt = &adjwgt;
            let row_chunks = &row_chunks;
            gpm_pool::parallel_chunks(row_chunks.len(), |c| {
                let (lo, hi) = row_chunks[c];
                for u in lo..hi {
                    let (s, e) = (xadj[u] as usize, xadj[u + 1] as usize);
                    for i in s..e {
                        let (v, w) = (adjncy[i], adjwgt[i]);
                        let (vs, ve) = (xadj[v as usize] as usize, xadj[v as usize + 1] as usize);
                        match adjncy[vs..ve].binary_search(&(u as Vid)) {
                            Ok(j) if adjwgt[vs + j] == w => {}
                            _ => return Some((u, v)),
                        }
                    }
                }
                None
            })
        };
        if let Some((u, v)) = bad.into_iter().flatten().next() {
            return parse_err(
                find_data_line(data, hdr.data_first_line, u),
                format!(
                    "edge ({}, {}) is not mirrored with an equal weight (the file must list \
                     every undirected edge in both endpoint lines)",
                    u + 1,
                    v + 1
                ),
            );
        }
    }

    let g = CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt);
    debug_assert!(g.validate().is_ok());
    Ok(g)
}

/// Memory-map `path` and parse it with [`read_metis_streamed`]. Falls
/// back to one buffered read where `mmap` is unavailable.
pub fn read_metis_mmap(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    let fb = FileBytes::open(path)?;
    read_metis_streamed(&fb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen::{delaunay_like, grid2d, rmat};
    use crate::io::write_metis;

    fn roundtrip(g: &CsrGraph) {
        let mut buf = Vec::new();
        write_metis(g, &mut buf).unwrap();
        assert_eq!(&read_metis_streamed(&buf).unwrap(), g);
    }

    #[test]
    fn roundtrips_generated_and_weighted_graphs() {
        roundtrip(&grid2d(17, 9));
        roundtrip(&delaunay_like(500, 3));
        roundtrip(&rmat(8, 7, 11));
        roundtrip(
            &GraphBuilder::from_weighted_edges(4, &[(0, 1, 3), (1, 2, 5), (2, 3, 1)])
                .vertex_weights(vec![2, 4, 6, 8])
                .build(),
        );
    }

    #[test]
    fn handles_comments_blank_lines_and_crlf() {
        let txt = "% header comment\r\n3 2\r\n% mid comment\r\n2 3\r\n1\r\n1\r\n\r\n";
        let g = read_metis_streamed(txt.as_bytes()).unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.vwgt, vec![1, 1, 1]);
        assert_eq!(g.adjwgt, vec![1; 4]);
    }

    #[test]
    fn blank_line_is_isolated_vertex() {
        let g = read_metis_streamed(b"3 1\n2\n1\n\n").unwrap();
        assert_eq!((g.n(), g.m()), (3, 1));
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(read_metis_streamed(b"").is_err());
        assert!(read_metis_streamed(b"% only comments\n").is_err());
        assert!(read_metis_streamed(b"2 1\n5\n1\n").is_err()); // neighbor out of range
        assert!(read_metis_streamed(b"3 5\n2\n1 3\n2\n").is_err()); // m mismatch
        assert!(read_metis_streamed(b"2 1\n2\n\n").is_err()); // unmirrored edge
        assert!(read_metis_streamed(b"2 2\n2 2\n1 1\n").is_err()); // duplicate neighbor
        assert!(read_metis_streamed(b"1 0\n1\n").is_err()); // self-loop
        assert!(read_metis_streamed(b"3 2\n2 3\n1\n").is_err()); // too few lines
        assert!(read_metis_streamed(b"2 1\n2\n1\nx\n").is_err()); // extra data line
        assert!(read_metis_streamed(b"2 1 111\n2\n1\n").is_err()); // vsize flag
        assert!(read_metis_streamed(b"2 1 0 2\n2\n1\n").is_err()); // ncon > 1
    }

    #[test]
    fn trailing_blank_lines_are_ignored() {
        let g = read_metis_streamed(b"2 1\n2\n1\n\n\n\n").unwrap();
        assert_eq!((g.n(), g.m()), (2, 1));
    }

    #[test]
    fn error_lines_match_the_file() {
        let msg = |txt: &[u8]| read_metis_streamed(txt).unwrap_err().to_string();
        // bad neighbor id on file line 3 (comment is line 1, header line 2)
        assert!(msg(b"% c\n2 1\n9\n1\n").starts_with("parse error at line 3: "));
        // (1, 2) is listed only in vertex 1's row, file line 2
        assert!(
            msg(b"3 1\n2\n3\n\n").starts_with("parse error at line 2: edge (1, 2) is not mirrored")
        );
        // a comment shifts vertex 2's row to file line 4
        assert!(msg(b"3 3\n2\n% c\n1 3 3\n2 2\n")
            .starts_with("parse error at line 4: duplicate neighbor 3 in the list of vertex 2"));
        // whole-file errors name no line; the count error counts entries
        assert_eq!(
            msg(b"3 2\n2\n1 3\n\n"),
            "parse error: header said 2 edges (4 neighbor entries), file lists 3 neighbor entries"
        );
        assert_eq!(msg(b"3 2\n2 3\n1\n"), "parse error: expected 3 vertex lines, found 2");
        assert_eq!(msg(b"% only comments\n"), "parse error: empty file");
    }

    #[cfg(not(feature = "idx64"))]
    #[test]
    fn oversized_edge_count_is_too_large() {
        // 3e9 edges: 2m does not fit a u32 offset
        match read_metis_streamed(b"4 3000000000\n").unwrap_err() {
            err @ IoError::TooLarge { m: 3_000_000_000, .. } => {
                assert!(err.to_string().contains("idx64"))
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn mmap_path_matches() {
        let g = grid2d(6, 6);
        let dir = std::env::temp_dir().join("gpm_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.graph");
        crate::io::write_metis_file(&g, &p).unwrap();
        let g2 = read_metis_mmap(&p).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&p).ok();
    }
}
