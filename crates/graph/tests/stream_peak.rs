//! Peak-heap bound of the streaming METIS loader: on a graph of about a
//! million edges, [`read_metis_streamed`] must peak at no more than
//! twice the bytes of the CSR it builds, and must read back exactly the
//! graph the file was written from.
//!
//! This test installs a counting global allocator, so it lives alone in
//! its own integration-test binary. The loader parses on pool workers,
//! so the bound is read from the process-wide watermark, and the binary
//! holds this one test so that nothing else allocates meanwhile.

use gpm_graph::gen::grid2d;
use gpm_graph::io::write_metis;
use gpm_graph::stream::read_metis_streamed;
use gpm_testkit::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn streamed_load_peaks_within_twice_the_csr() {
    // 708 x 708 grid: 501,264 vertices, 1,001,112 edges, large enough
    // that the CSR dwarfs the loader's constant-size scratch
    let g = grid2d(708, 708);
    let csr_bytes = g.bytes();
    let mut file = Vec::new();
    write_metis(&g, &mut file).expect("serialize");

    ALLOC.reset_peak();
    let base = ALLOC.live_bytes();
    let back = read_metis_streamed(&file).expect("streamed parse");
    let peak = ALLOC.peak_bytes() - base;

    eprintln!(
        "m = {}: streamed load peak {peak} B, CSR {csr_bytes} B ({:.2}x)",
        g.m(),
        peak as f64 / csr_bytes as f64
    );
    assert!(
        peak <= 2 * csr_bytes,
        "streaming loader peak ({peak} B) exceeds 2x the CSR it builds ({csr_bytes} B)"
    );
    assert!(back == g, "the streamed graph differs from the one written");
}
