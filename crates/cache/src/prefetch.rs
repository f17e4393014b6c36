//! Hardware prefetcher models, disableable via MSR 0x1A4.
//!
//! §IV-A2 of the paper: "for microbenchmarks that measure properties of
//! caches ... it can be helpful to disable cache prefetching. On Intel CPUs,
//! this can be achieved by setting specific bits in a model-specific
//! register." We model the two L2 prefetchers and the two L1 (DCU)
//! prefetchers controlled by `MSR_MISC_FEATURE_CONTROL` (0x1A4):
//!
//! | bit | prefetcher                  |
//! |-----|-----------------------------|
//! | 0   | L2 hardware (streamer)      |
//! | 1   | L2 adjacent cache line      |
//! | 2   | DCU (L1 next-line streamer) |
//! | 3   | DCU IP (stride)             |
//!
//! Stream detection state lives in fixed-capacity, direct-indexed tables
//! ([`L2_STREAM_SLOTS`] / [`L1_STREAM_SLOTS`]) rather than growable maps:
//! real stream detectors track a bounded number of streams, and the
//! direct-indexed lookup keeps the per-demand-access cost at a modulo and
//! a tag compare instead of a SipHash probe.

/// MSR address of the prefetcher-control register.
pub const MSR_MISC_FEATURE_CONTROL: u32 = 0x1A4;

/// Streams the L2 streamer tracks concurrently (real streamers monitor up
/// to 32 streams; Intel SDM / optimization manual, "one per 4K page").
pub const L2_STREAM_SLOTS: usize = 32;

/// Streams the DCU (L1) prefetcher tracks concurrently.
pub const L1_STREAM_SLOTS: usize = 16;

/// Per-4KB-page stream tracking state.
#[derive(Debug, Clone, Copy)]
struct Stream {
    last_block: u64,
    stride: i64,
    confidence: u8,
}

/// A fixed-capacity, direct-indexed stream table: slot `page % capacity`,
/// tagged with the page number. A new page whose slot is occupied evicts
/// the old stream — matching real stream detectors, which track a bounded
/// number of streams and drop the oldest rather than growing without
/// limit. (The previous implementation used a `HashMap` keyed by page:
/// unbounded, and a SipHash computation per demand access.)
#[derive(Debug)]
struct StreamTable {
    slots: Box<[Option<(u64, Stream)>]>,
}

impl StreamTable {
    fn new(capacity: usize) -> StreamTable {
        StreamTable {
            slots: vec![None; capacity].into_boxed_slice(),
        }
    }

    /// The stream for `page`, allocating (or evicting a colliding page's
    /// stream) with `last_block = block` — the same initial state the
    /// old map-based `entry(page).or_insert(...)` produced.
    fn entry(&mut self, page: u64, block: u64) -> &mut Stream {
        let idx = (page % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        match slot {
            Some((tag, _)) if *tag == page => {}
            _ => {
                *slot = Some((
                    page,
                    Stream {
                        last_block: block,
                        stride: 0,
                        confidence: 0,
                    },
                ));
            }
        }
        &mut slot.as_mut().expect("slot just filled").1
    }

    fn clear(&mut self) {
        self.slots.fill(None);
    }
}

/// Prefetch decisions produced for one demand access, held inline so the
/// access path does not allocate: the L2 prefetchers issue at most three
/// lines (the adjacent line and two streamer lines), the DCU at most one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchRequests {
    addrs: [u64; 3],
    len: u8,
}

impl PrefetchRequests {
    fn push(&mut self, paddr: u64) {
        self.addrs[usize::from(self.len)] = paddr;
        self.len += 1;
    }

    /// The physical addresses to prefetch, in issue order.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs[..usize::from(self.len)]
    }
}

/// The prefetcher bank of one core.
#[derive(Debug)]
pub struct Prefetchers {
    /// Bits of MSR 0x1A4: a set bit *disables* the corresponding prefetcher.
    disable_bits: u64,
    l2_streams: StreamTable,
    l1_streams: StreamTable,
}

impl Default for Prefetchers {
    fn default() -> Prefetchers {
        Prefetchers::new()
    }
}

impl Prefetchers {
    /// Creates the prefetcher bank with all prefetchers enabled.
    pub fn new() -> Prefetchers {
        Prefetchers {
            disable_bits: 0,
            l2_streams: StreamTable::new(L2_STREAM_SLOTS),
            l1_streams: StreamTable::new(L1_STREAM_SLOTS),
        }
    }

    /// Writes the MSR 0x1A4 value (set bits disable prefetchers).
    pub fn set_disable_bits(&mut self, value: u64) {
        self.disable_bits = value;
    }

    /// Reads back the MSR 0x1A4 value.
    pub fn disable_bits(&self) -> u64 {
        self.disable_bits
    }

    /// Convenience: disables all four prefetchers (value 0xF), as the
    /// paper's cache tools do before measuring.
    pub fn disable_all(&mut self) {
        self.disable_bits = 0xF;
    }

    fn l2_streamer_enabled(&self) -> bool {
        self.disable_bits & 0x1 == 0
    }

    fn adjacent_line_enabled(&self) -> bool {
        self.disable_bits & 0x2 == 0
    }

    fn dcu_enabled(&self) -> bool {
        self.disable_bits & 0x4 == 0
    }

    /// Observes a demand access to `paddr` that reached the L2 (i.e. missed
    /// L1). `l2_hit` tells whether it hit in L2. Returns the lines to
    /// prefetch into L2 (and L3).
    pub fn observe_l2_access(&mut self, paddr: u64, l2_hit: bool) -> PrefetchRequests {
        let mut reqs = PrefetchRequests::default();
        let block = paddr / 64;
        let page = paddr >> 12;

        if self.adjacent_line_enabled() && !l2_hit {
            // Adjacent-line: fetch the other half of the 128-byte pair.
            reqs.push((block ^ 1) * 64);
        }
        if self.l2_streamer_enabled() {
            let stream = self.l2_streams.entry(page, block);
            let stride = block as i64 - stream.last_block as i64;
            if stride != 0 && stride == stream.stride {
                stream.confidence = stream.confidence.saturating_add(1);
            } else if stride != 0 {
                stream.stride = stride;
                stream.confidence = 0;
            }
            stream.last_block = block;
            if stream.confidence >= 1 && stream.stride != 0 {
                // Prefetch the next two blocks of the stream, staying in
                // the page (hardware prefetchers do not cross 4KB pages).
                for k in 1..=2i64 {
                    let next = block as i64 + stream.stride * k;
                    if next >= 0 && (next as u64 * 64) >> 12 == page {
                        reqs.push(next as u64 * 64);
                    }
                }
            }
        }
        reqs
    }

    /// Observes a demand access at the L1 level; returns the lines to
    /// prefetch into L1.
    pub fn observe_l1_access(&mut self, paddr: u64, l1_hit: bool) -> PrefetchRequests {
        let mut reqs = PrefetchRequests::default();
        if !self.dcu_enabled() || l1_hit {
            return reqs;
        }
        let block = paddr / 64;
        let page = paddr >> 12;
        let stream = self.l1_streams.entry(page, block);
        let stride = block as i64 - stream.last_block as i64;
        if stride == 1 {
            stream.confidence = stream.confidence.saturating_add(1);
        } else if stride != 0 {
            stream.confidence = 0;
        }
        stream.last_block = block;
        if stream.confidence >= 1 && ((block + 1) * 64) >> 12 == page {
            // DCU streamer fetches the next sequential line.
            reqs.push((block + 1) * 64);
        }
        reqs
    }

    /// Clears stream-detection state (contents of MSR persist).
    pub fn reset_streams(&mut self) {
        self.l2_streams.clear();
        self.l1_streams.clear();
    }

    /// Number of live L2 streamer entries (diagnostics / tests).
    pub fn l2_streams_live(&self) -> usize {
        self.l2_streams.slots.iter().flatten().count()
    }

    /// Restores power-on state: all prefetchers enabled (MSR 0x1A4 = 0)
    /// and no stream history.
    pub fn reset(&mut self) {
        self.disable_bits = 0;
        self.reset_streams();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_prefetchers_do_nothing() {
        let mut p = Prefetchers::new();
        p.disable_all();
        assert_eq!(p.disable_bits(), 0xF);
        for i in 0..10u64 {
            let r = p.observe_l2_access(i * 64, false);
            assert!(r.addrs().is_empty());
            let r = p.observe_l1_access(i * 64, false);
            assert!(r.addrs().is_empty());
        }
    }

    #[test]
    fn adjacent_line_pairs() {
        let mut p = Prefetchers::new();
        p.set_disable_bits(0b0101); // only adjacent-line enabled among L2
        let r = p.observe_l2_access(0x80, false); // block 2 -> buddy block 3
        assert_eq!(r.addrs(), [0xC0]);
        let r = p.observe_l2_access(0xC0, false); // block 3 -> buddy block 2
        assert_eq!(r.addrs(), [0x80]);
    }

    #[test]
    fn streamer_detects_sequential_pattern() {
        let mut p = Prefetchers::new();
        p.set_disable_bits(0b1110); // only the L2 streamer enabled
        let mut prefetched: Vec<u64> = Vec::new();
        for i in 0..8u64 {
            prefetched.extend(p.observe_l2_access(i * 64, false).addrs());
        }
        // After two same-stride deltas the streamer starts prefetching ahead.
        assert!(prefetched.contains(&(3 * 64)));
        assert!(!prefetched.is_empty());
    }

    #[test]
    fn streamer_does_not_cross_pages() {
        let mut p = Prefetchers::new();
        p.set_disable_bits(0b1110);
        let base = 4096 - 3 * 64;
        let mut prefetched: Vec<u64> = Vec::new();
        for i in 0..3u64 {
            prefetched.extend(p.observe_l2_access(base + i * 64, false).addrs());
        }
        assert!(
            prefetched.iter().all(|a| *a < 4096),
            "prefetches must stay within the 4KB page: {prefetched:?}"
        );
    }

    /// Golden: the exact per-access prefetch decisions of a two-page
    /// strided workload, unchanged by the move from the map-based stream
    /// store to the fixed-capacity table (the pages occupy distinct
    /// slots). Derived from the streamer model: prefetching starts at the
    /// second same-stride delta and stays within the 4KB page.
    #[test]
    fn golden_two_page_streams_unchanged() {
        let mut p = Prefetchers::new();
        p.set_disable_bits(0b1110); // only the L2 streamer
        let mut log = Vec::new();
        for i in 0..4u64 {
            // Interleave a forward stream on page 0 with a stride-2
            // stream on page 1; per-page state must not interfere.
            log.push(p.observe_l2_access(i * 64, false).addrs().to_vec());
            log.push(p.observe_l2_access(4096 + i * 128, false).addrs().to_vec());
        }
        let expected: Vec<Vec<u64>> = vec![
            vec![],                             // page 0, block 0: new stream
            vec![],                             // page 1, block 64: new stream
            vec![],                             // page 0: first delta, conf 0
            vec![],                             // page 1: first delta, conf 0
            vec![3 * 64, 4 * 64],               // page 0: conf 1, prefetch +1/+2
            vec![4096 + 6 * 64, 4096 + 8 * 64], // page 1: conf 1, stride 2
            vec![4 * 64, 5 * 64],
            vec![4096 + 8 * 64, 4096 + 10 * 64],
        ];
        assert_eq!(log, expected);
    }

    #[test]
    fn colliding_pages_evict_each_others_stream() {
        let mut p = Prefetchers::new();
        p.set_disable_bits(0b1110); // only the L2 streamer
        let far = L2_STREAM_SLOTS as u64 * 4096; // same slot as page 0
                                                 // Build confidence on page 0...
        for i in 0..3u64 {
            p.observe_l2_access(i * 64, false);
        }
        assert_eq!(p.l2_streams_live(), 1);
        // ...then one access to the colliding page evicts that stream.
        p.observe_l2_access(far, false);
        assert_eq!(p.l2_streams_live(), 1);
        // Page 0 must start over: its next two accesses rebuild the
        // stride history before any prefetch is issued again.
        assert!(p.observe_l2_access(3 * 64, false).addrs().is_empty());
        assert!(p.observe_l2_access(4 * 64, false).addrs().is_empty());
        assert_eq!(p.observe_l2_access(5 * 64, false).addrs(), [6 * 64, 7 * 64]);
    }

    #[test]
    fn stream_table_capacity_is_bounded() {
        let mut p = Prefetchers::new();
        // Touch far more pages than the table has slots; the live-entry
        // count must never exceed the architectural stream limit.
        for page in 0..10 * L2_STREAM_SLOTS as u64 {
            p.observe_l2_access(page * 4096, false);
            assert!(p.l2_streams_live() <= L2_STREAM_SLOTS);
        }
        assert_eq!(p.l2_streams_live(), L2_STREAM_SLOTS);
        p.reset_streams();
        assert_eq!(p.l2_streams_live(), 0);
    }

    #[test]
    fn dcu_next_line() {
        let mut p = Prefetchers::new();
        p.set_disable_bits(0b1011); // only DCU enabled
        assert!(p.observe_l1_access(0, false).addrs().is_empty());
        let r = p.observe_l1_access(64, false);
        assert_eq!(r.addrs(), [128]);
    }
}
