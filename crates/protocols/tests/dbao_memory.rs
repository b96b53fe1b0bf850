//! DBAO's start-up state must grow with the number of links, not with
//! the square of the node count: a 4 096-node grid has about 16 k
//! directed links, and a dense `n × n` rank table would take 64 MiB.
//!
//! A byte-counting allocator is this binary's global allocator, and the
//! binary holds a single `#[test]`, so no other thread allocates while
//! `on_start` is measured.

use ldcf_net::{LinkQuality, Topology};
use ldcf_protocols::Dbao;
use ldcf_sim::{Engine, FloodingProtocol, SimConfig, SimState, TxIntent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the bytes every allocation and reallocation asks for.
struct ByteCounter;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: ByteCounter = ByteCounter;

/// Holds the engine's state still so DBAO can be started against it.
struct Idle;

impl FloodingProtocol for Idle {
    fn name(&self) -> &str {
        "idle"
    }

    fn propose(&mut self, _: &SimState, _: &mut Vec<TxIntent>) {}
}

#[test]
fn dbao_start_up_state_is_linear_in_links() {
    let topo = Topology::grid(64, 64, LinkQuality::new(0.8));
    let (n, links) = (topo.n_nodes(), 2 * topo.n_edges());
    let cfg = SimConfig {
        period: 20,
        active_per_period: 1,
        n_packets: 1,
        coverage: 1.0,
        max_slots: 1,
        seed: 1,
        mistiming_prob: 0.0,
    };
    let engine = Engine::new(topo, cfg, Idle);
    let state = engine.state();
    let mut dbao = Dbao::new();
    let before = BYTES.load(Ordering::Relaxed);
    dbao.on_start(state);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    // Per link: a rank (4 B), a back-off deadline (8 B), at most one
    // clique entry (4 B, with growth slack) and at most one 8 B
    // receiver-list entry (reserved for the busiest wake offset, a
    // twentieth of the links here); per node a clique offset, a list
    // end and a memo byte.
    let bound = 32 * links as u64 + 8 * n as u64;
    eprintln!("DBAO on_start: {bytes} B for {n} nodes, {links} links (bound {bound} B)");
    assert!(
        bytes <= bound,
        "DBAO on_start allocated {bytes} B for {links} links: more than {bound} B"
    );
}
