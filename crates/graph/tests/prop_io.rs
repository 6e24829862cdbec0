//! Property tests of the graph readers. The METIS reader is the
//! streaming loader: every file [`write_metis`] writes, clean or
//! decorated with comments, Windows line endings and blank lines, must
//! read back as exactly the graph it was written from; malformed,
//! truncated and overflowing METIS / DIMACS9 inputs must come back as
//! typed [`IoError`]s, never a panic; and golden digests pin the loader's
//! outcome on mutated and truncated files. (Runs on the in-repo
//! `gpm-testkit` harness.)

use gpm_graph::builder::GraphBuilder;
use gpm_graph::csr::CsrGraph;
use gpm_graph::digest::Fnv1a;
use gpm_graph::gen::{delaunay_like, grid2d};
use gpm_graph::io::{read_dimacs9, write_metis, IoError};
use gpm_graph::stream::read_metis_streamed;
use gpm_graph::Vid;
use gpm_testkit::{check, pinned, tk_assert, tk_assert_eq, Source};
use std::io::Cursor;

/// A random small weighted graph (possibly with isolated vertices).
fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    let n = src.usize_in(1, 40);
    let mut b = GraphBuilder::new(n);
    let m = src.usize_in(0, 3 * n);
    for _ in 0..m {
        let u = src.usize_in(0, n) as Vid;
        let v = src.usize_in(0, n) as Vid;
        if u != v {
            b.add_edge(u.min(v), u.max(v), src.u32_in(1, 100));
        }
    }
    let vwgt = (0..n).map(|_| src.u32_in(1, 50)).collect();
    b.vertex_weights(vwgt).build()
}

fn metis_file(g: &CsrGraph) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    write_metis(g, &mut buf).map_err(|e| e.to_string())?;
    Ok(buf)
}

#[test]
fn metis_roundtrip_arbitrary_graphs() {
    check("metis_roundtrip_arbitrary_graphs", 96, |src| {
        let g = arbitrary_graph(src);
        let back = read_metis_streamed(&metis_file(&g)?).map_err(|e| e.to_string())?;
        tk_assert_eq!(back, g);
        Ok(())
    });
}

/// Re-encode a serialized file with parser-irrelevant decorations: CRLF
/// endings, comment lines (before the header and between vertex lines),
/// leading blank-ish whitespace, and trailing blank lines.
fn decorate(src: &mut Source, buf: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(buf.len() * 2);
    let crlf = src.chance(0.5);
    for _ in 0..src.usize_in(0, 3) {
        out.extend_from_slice(b"% decorative pre-header comment\n");
    }
    for line in buf.split(|&b| b == b'\n') {
        if line.is_empty() {
            continue; // the final piece after the trailing newline
        }
        if src.chance(0.2) {
            out.extend_from_slice(b"  % interleaved comment\r\n");
        }
        if src.chance(0.2) {
            out.push(b' '); // leading whitespace is insignificant
        }
        out.extend_from_slice(line);
        if crlf {
            out.push(b'\r');
        }
        out.push(b'\n');
    }
    for _ in 0..src.usize_in(0, 3) {
        out.extend_from_slice(if crlf { b"\r\n".as_slice() } else { b"\n".as_slice() });
    }
    out
}

#[test]
fn metis_roundtrip_decorated_files() {
    check("metis_roundtrip_decorated_files", 96, |src| {
        let g = arbitrary_graph(src);
        let decorated = decorate(src, &metis_file(&g)?);
        let back = read_metis_streamed(&decorated).map_err(|e| e.to_string())?;
        tk_assert_eq!(back, g);
        Ok(())
    });
}

/// Fold one loader outcome into a golden digest: `0` for an error (its
/// text is not pinned), `1` and the CSR arrays for a graph.
fn fold_outcome(h: &mut Fnv1a, r: &Result<CsrGraph, IoError>) {
    match r {
        Err(_) => h.u64(0),
        Ok(g) => h.u64(1).graph(g),
    };
}

/// Flip a handful of bytes of a random graph's file to printable
/// garbage.
fn mutated_file(src: &mut Source) -> Result<Vec<u8>, String> {
    let mut buf = metis_file(&arbitrary_graph(src))?;
    for _ in 0..src.usize_in(1, 6) {
        let i = src.usize_in(0, buf.len());
        buf[i] = *src.choose(b"0123456789 -x%\n\t.");
    }
    Ok(buf)
}

/// A random graph and its file, cut anywhere (mid-token included).
fn truncated_file(src: &mut Source) -> Result<(CsrGraph, Vec<u8>), String> {
    let g = arbitrary_graph(src);
    let mut buf = metis_file(&g)?;
    let cut = src.usize_in(0, buf.len() + 1).min(buf.len());
    buf.truncate(cut);
    Ok((g, buf))
}

#[test]
fn mutated_metis_never_panics() {
    check("mutated_metis_never_panics", 96, |src| {
        // any outcome is fine except a panic; a parsed graph must be sane
        if let Ok(h) = read_metis_streamed(&mutated_file(src)?) {
            tk_assert!(h.validate().is_ok(), "parsed graph fails validation");
        }
        Ok(())
    });
}

#[test]
fn truncated_metis_never_panics() {
    check("truncated_metis_never_panics", 96, |src| {
        // a cut can only parse if every vertex line survived and the
        // counts still agree
        let (g, buf) = truncated_file(src)?;
        if let Ok(h) = read_metis_streamed(&buf) {
            tk_assert_eq!(h.n(), g.n());
            tk_assert_eq!(h.m(), g.m());
        }
        Ok(())
    });
}

#[test]
fn mutated_files_are_pinned() {
    pinned("mutated_files_are_pinned", 96, 0xce1cc7441e45bf9a, |src, h| {
        fold_outcome(h, &read_metis_streamed(&mutated_file(src)?));
        Ok(())
    });
}

#[test]
fn truncated_files_are_pinned() {
    pinned("truncated_files_are_pinned", 96, 0x74cb61550030b093, |src, h| {
        fold_outcome(h, &read_metis_streamed(&truncated_file(src)?.1));
        Ok(())
    });
}

#[test]
fn overflowing_metis_headers_are_typed_errors() {
    check("overflowing_metis_headers_are_typed_errors", 48, |src| {
        // the caps move with the index width, so only the default (u32)
        // build can exceed them with parseable numbers
        #[cfg(not(feature = "idx64"))]
        {
            let huge_n = (u32::MAX as u64) + 1 + src.below(1 << 40);
            let huge_m = (u32::MAX as u64 / 2) + 1 + src.below(1 << 40);
            match read_metis_streamed(format!("{huge_n} 1\n").as_bytes()) {
                Err(IoError::Parse { .. }) => {}
                other => return Err(format!("huge n: expected parse error, got {other:?}")),
            }
            // over-cap edge counts get the dedicated variant whose message
            // points at the idx64 build
            match read_metis_streamed(format!("4 {huge_m}\n").as_bytes()) {
                Err(e @ IoError::TooLarge { .. }) => {
                    if !e.to_string().contains("idx64") {
                        return Err(format!("missing idx64 hint in `{e}`"));
                    }
                }
                other => return Err(format!("huge m: expected TooLarge, got {other:?}")),
            }
            // n is checked first when both overflow
            match read_metis_streamed(format!("{huge_n} {huge_m}\n").as_bytes()) {
                Err(IoError::Parse { .. }) => {}
                other => return Err(format!("huge n+m: expected parse error, got {other:?}")),
            }
        }
        let _ = &src;
        // astronomically large counts overflow usize parsing itself
        match read_metis_streamed(b"99999999999999999999999999 1\n") {
            Err(IoError::Parse { .. }) => Ok(()),
            other => Err(format!("expected parse error, got {other:?}")),
        }
    });
}

#[test]
fn metis_header_vertex_count_must_match_body() {
    check("metis_header_vertex_count_must_match_body", 48, |src| {
        let g = arbitrary_graph(src);
        let text = String::from_utf8(metis_file(&g)?).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        let mut parts: Vec<String> = header.split_whitespace().map(str::to_string).collect();
        // declare more vertices than the file has
        parts[0] = format!("{}", g.n() + src.usize_in(1, 10));
        let lying = format!("{}\n{}", parts.join(" "), body);
        match read_metis_streamed(lying.as_bytes()) {
            Err(IoError::Parse { .. }) => Ok(()),
            other => Err(format!("expected parse error, got {other:?}")),
        }
    });
}

/// Serialize a graph as DIMACS9 arcs (both directions, as real files do).
fn to_dimacs9(g: &CsrGraph) -> String {
    let mut s = format!("c generated\np sp {} {}\n", g.n(), 2 * g.m());
    for u in 0..g.n() as Vid {
        for (v, w) in g.edges(u) {
            s.push_str(&format!("a {} {} {w}\n", u + 1, v + 1));
        }
    }
    s
}

#[test]
fn dimacs9_roundtrip_arbitrary_graphs() {
    check("dimacs9_roundtrip_arbitrary_graphs", 48, |src| {
        let g = arbitrary_graph(src);
        let back = read_dimacs9(Cursor::new(to_dimacs9(&g))).map_err(|e| e.to_string())?;
        tk_assert_eq!(back.n(), g.n());
        tk_assert_eq!(back.m(), g.m());
        // weights survive symmetrized-arc dedup
        tk_assert_eq!(back.total_adjwgt(), g.total_adjwgt());
        Ok(())
    });
}

#[test]
fn truncated_or_mutated_dimacs9_never_panics() {
    check("truncated_or_mutated_dimacs9_never_panics", 96, |src| {
        let g = arbitrary_graph(src);
        let mut buf = to_dimacs9(&g).into_bytes();
        if src.chance(0.5) {
            let cut = src.usize_in(0, buf.len() + 1).min(buf.len());
            buf.truncate(cut);
        } else {
            for _ in 0..src.usize_in(1, 6) {
                let i = src.usize_in(0, buf.len().max(1)).min(buf.len() - 1);
                buf[i] = *src.choose(b"0123456789 acp-\n");
            }
        }
        if let Ok(h) = read_dimacs9(Cursor::new(&buf)) {
            tk_assert!(h.validate().is_ok(), "parsed graph fails validation");
        }
        Ok(())
    });
}

#[test]
fn overflowing_dimacs9_headers_are_typed_errors() {
    // Counts just past the u32 caps are typed errors only in the default
    // build; under idx64 they declare legal (if enormous) graphs, so the
    // reader would faithfully allocate for them — skip those cases there.
    #[cfg(not(feature = "idx64"))]
    {
        let huge = (u32::MAX as u64) + 2;
        for text in [format!("p sp {huge} 1\na 1 2 1\n"), format!("p sp 3 {huge}\na 1 2 1\n")] {
            match read_dimacs9(Cursor::new(&text)) {
                Err(IoError::Parse { .. }) | Err(IoError::TooLarge { .. }) => {}
                other => panic!("expected typed error, got {other:?}"),
            }
        }
    }
    // counts that overflow usize parsing itself fail in every build
    match read_dimacs9(Cursor::new("p sp 99999999999999999999999999 1\n")) {
        Err(IoError::Parse { .. }) => {}
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn generator_graphs_survive_a_full_io_cycle() {
    for g in [grid2d(9, 7), delaunay_like(300, 4)] {
        let back = read_metis_streamed(&metis_file(&g).unwrap()).unwrap();
        assert_eq!(back, g);
    }
}
