//! Lane-parallel (packed) event-driven timed simulation.
//!
//! [`PackedTimedSimulator`] simulates up to [`LANES`] = 64 independent
//! stimulus vectors per `u64` word through *timed* gate-level evaluation:
//! the same per-net transport delays, clock-edge sampling, settle times and
//! glitch counts as the scalar [`TimedSimulator`](crate::TimedSimulator),
//! but with every gate evaluation ([`CellFunction::eval_words`]) and every
//! net transition shared across all lanes.
//!
//! Two properties make the engine exact rather than approximate:
//!
//! * **Integer tick grid.** All event times are femtosecond ticks
//!   ([`crate::TICKS_PER_PS`]), shared with the scalar engine, so
//!   "simultaneous" is decidable and both engines batch the same instants.
//! * **Event groups.** One group carries a net's new lane word plus the
//!   mask of lanes that actually change. Lanes whose delays drive a
//!   transition to the same (net, tick) share one group, one calendar
//!   operation, and one gate re-evaluation — on balanced adders most lanes
//!   do, which is where the speedup over 64 scalar event queues comes from.
//!
//! The calendar is a timing wheel: a power-of-two ring of per-tick FIFO
//! lists sized to cover the largest net delay, so every pending event lies
//! within one revolution of the tick being drained. A two-level occupancy
//! bitmap finds the next pending tick in a few word operations. The ring is
//! capped at [`MAX_RING_BITS`]; events beyond its horizon wait in a small
//! overflow min-heap and move into the ring once it reaches them, so any
//! finite delay still simulates exactly. Within a tick, dirty gates are
//! bucketed by topological level and only the range of levels actually
//! dirtied is drained.
//!
//! Per lane, the sequence of transitions on every net is identical to what
//! a scalar simulator stepping that lane's stimulus stream would apply
//! (single driver per net, suppression against the last scheduled value,
//! sampling before any event at `t >= t_clock`), so per-lane outcomes are
//! bit-identical — `tests/sim_equivalence.rs` pins this differentially.

use crate::packed::{lane_mask, PackedEvaluator, LANES};
use crate::timed::{ps_to_ticks, quantize_delays, ticks_to_ps};
use crate::StepOutcome;
use aix_cells::{CellFunction, MAX_INPUTS, MAX_OUTPUTS};
use aix_netlist::{Netlist, NetlistError};
use aix_sta::NetDelays;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// End-of-list link in the calendar's event pool.
const NIL: u32 = u32::MAX;

/// Smallest ring: one occupancy word of 64 slots.
const MIN_RING_BITS: u32 = 6;

/// Largest ring: 2¹⁷ slots (512 KiB of slot tails) cover net delays up
/// to 131 ps, above the largest aged and perturbed net delays
/// of the Fig. 1, Fig. 2 and `verify` netlists (86–97 ps). Longer
/// delays take the overflow heap.
const MAX_RING_BITS: u32 = 17;

/// One batch of lane transitions on a single net at a single tick, linked
/// into its calendar slot's FIFO list.
#[derive(Debug, Clone, Copy)]
struct EventGroup {
    /// New lane word of the net (only bits under `mask` are meaningful).
    values: u64,
    /// Lanes this group transitions, as scheduled. Application re-masks
    /// against the current word, mirroring the scalar engine's "skip if
    /// already at that value" rule per lane.
    mask: u64,
    net: u32,
    /// Next group of the same slot (or of the free list), [`NIL`] at the
    /// end.
    next: u32,
}

/// Timing-wheel event calendar: groups are pooled in one free-listed
/// `Vec`, and each ring slot holds one tick's FIFO list as a circular list
/// named by its tail, whose `next` is the head. One word per slot keeps
/// the ring at half the size of a head-and-tail pair. Every event in the
/// ring lies in `[now, now + ring length)`, so a slot index identifies its
/// tick; later events wait in `overflow`.
///
/// Lists are FIFO because order can matter: a zero-delay input can
/// re-evaluate a gate twice within one tick, queueing two groups for the
/// same net at the same later tick, and the later one must apply last.
#[derive(Debug)]
struct Calendar {
    /// Tick of the slot being drained; no pending event precedes it.
    now: u64,
    /// Ring length minus one (the ring length is a power of two).
    slot_mask: u64,
    /// Per-slot tail of the circular list in `pool`, meaningful only while
    /// the slot's occupancy bit is set.
    slots: Vec<u32>,
    /// Bit *s* is set while slot *s* holds groups.
    occupied: Vec<u64>,
    /// Bit *w* is set while `occupied[w]` is non-zero.
    summary: Vec<u64>,
    pool: Vec<EventGroup>,
    /// Head of the free list threaded through `pool`.
    free: u32,
    /// Groups at or beyond the ring's horizon, keyed by (tick, insertion
    /// order) so same-tick groups keep their FIFO order when they move
    /// into the ring.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    overflow_seq: u64,
}

impl Calendar {
    /// A calendar whose ring covers `max_delay` ticks, within
    /// `MIN_RING_BITS..=max_ring_bits`.
    fn new(max_delay: u64, max_ring_bits: u32) -> Self {
        let needed = max_delay
            .checked_add(1)
            .and_then(u64::checked_next_power_of_two)
            .map_or(u64::BITS, u64::trailing_zeros);
        let bits = needed.clamp(MIN_RING_BITS, max_ring_bits);
        let ring = 1usize << bits;
        let words = ring / 64;
        Self {
            now: 0,
            slot_mask: ring as u64 - 1,
            slots: vec![0; ring],
            occupied: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            pool: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            overflow_seq: 0,
        }
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.overflow.is_empty() && self.summary.iter().all(|&w| w == 0)
    }

    /// Schedules the group driving `net` to `values` in the lanes of
    /// `mask` at `time`, which must not precede `now`.
    fn schedule(&mut self, time: u64, net: u32, values: u64, mask: u64) {
        debug_assert!(time >= self.now, "event at {time} before now {}", self.now);
        let group = EventGroup {
            values,
            mask,
            net,
            next: NIL,
        };
        let index = if self.free == NIL {
            assert!(
                self.pool.len() < NIL as usize,
                "pending event groups exceed the u32 pool index"
            );
            self.pool.push(group);
            (self.pool.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = self.pool[index as usize].next;
            self.pool[index as usize] = group;
            index
        };
        if time - self.now <= self.slot_mask {
            self.append(time, index);
        } else {
            self.overflow
                .push(Reverse((time, self.overflow_seq, index)));
            self.overflow_seq += 1;
        }
    }

    /// Links pool entry `index` at the tail of `time`'s slot.
    #[inline(always)]
    fn append(&mut self, time: u64, index: u32) {
        let slot = (time & self.slot_mask) as usize;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            self.summary[word / 64] |= 1u64 << (word % 64);
            self.pool[index as usize].next = index;
        } else {
            let tail = self.slots[slot] as usize;
            self.pool[index as usize].next = self.pool[tail].next;
            self.pool[tail].next = index;
        }
        self.slots[slot] = index;
    }

    /// First occupied slot at or after `from`, without wrapping.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let bits = self.occupied[word] & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        let next_word = word + 1;
        if next_word >= self.occupied.len() {
            return None;
        }
        let mut index = next_word / 64;
        let mut bits = self.summary[index] & (!0u64 << (next_word % 64));
        loop {
            if bits != 0 {
                let word = index * 64 + bits.trailing_zeros() as usize;
                return Some(word * 64 + self.occupied[word].trailing_zeros() as usize);
            }
            index += 1;
            bits = *self.summary.get(index)?;
        }
    }

    /// Detaches the earliest pending tick's list, returning the tick and
    /// the list head (walk it with [`release`](Self::release)). Overflow
    /// groups the ring now reaches move into it first. Returns `None` once
    /// nothing is pending, rewinding to tick 0 for the next step.
    fn pop(&mut self) -> Option<(u64, u32)> {
        let from = (self.now & self.slot_mask) as usize;
        let in_ring = self
            .first_occupied_from(from)
            .or_else(|| self.first_occupied_from(0))
            .map(|slot| self.now + ((slot as u64).wrapping_sub(from as u64) & self.slot_mask));
        let beyond = self.overflow.peek().map(|&Reverse((time, ..))| time);
        let next = match (in_ring, beyond) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => {
                self.now = 0;
                return None;
            }
        };
        self.now = next;
        while let Some(&Reverse((time, _, index))) = self.overflow.peek() {
            if time - self.now > self.slot_mask {
                break;
            }
            self.overflow.pop();
            self.append(time, index);
        }
        let slot = (next & self.slot_mask) as usize;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        self.occupied[word] &= !bit;
        if self.occupied[word] == 0 {
            self.summary[word / 64] &= !(1u64 << (word % 64));
        }
        // Open the circle: the tail ends the detached list.
        let tail = self.slots[slot] as usize;
        let head = self.pool[tail].next;
        self.pool[tail].next = NIL;
        Some((next, head))
    }

    /// Returns pool entry `index` to the free list and hands back its
    /// group, whose `next` continues the detached list.
    fn release(&mut self, index: u32) -> EventGroup {
        let group = self.pool[index as usize];
        self.pool[index as usize].next = self.free;
        self.free = index;
        group
    }

    /// Drops every pending group and rewinds to tick 0.
    fn clear(&mut self) {
        self.now = 0;
        self.occupied.fill(0);
        self.summary.fill(0);
        self.pool.clear();
        self.free = NIL;
        self.overflow.clear();
    }
}

/// How the lanes of a [`PackedTimedSimulator`] are being fed. The two
/// modes imply different lane-state chaining and must not be mixed on one
/// simulator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One logical stimulus stream chunked 64 vectors at a time
    /// ([`PackedTimedSimulator::step_stream_batch`]): lane *l* starts from
    /// the settled state of vector *l − 1*.
    StreamBatch,
    /// 64 persistent independent streams
    /// ([`PackedTimedSimulator::step_streams`]): lane *l* carries its own
    /// settled state across calls.
    Streams,
}

/// Per-lane results of one packed timed step: the lane-parallel twin of
/// [`StepOutcome`]. Use [`outcome_for_lane`](Self::outcome_for_lane) for an
/// exact scalar-shaped view of one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedStepOutcome {
    lanes: usize,
    /// Output lane words captured at the sampling instant, port order.
    sampled_words: Vec<u64>,
    /// Output lane words after all events settled, port order.
    settled_words: Vec<u64>,
    /// Mask of lanes whose sampled word differs from their settled word.
    error_lanes: u64,
    /// Per-lane settle instant in ticks (0 when the lane saw no event).
    settle_ticks: Vec<u64>,
    /// Per-lane transition counts, glitches included.
    transitions: Vec<u64>,
}

impl PackedStepOutcome {
    /// Number of active lanes in this step.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Output lane words at the sampling instant, in port order. A
    /// transition arriving exactly at the clock edge is *not* latched —
    /// the same edge-exclusive semantics as the scalar engine.
    pub fn sampled_words(&self) -> &[u64] {
        &self.sampled_words
    }

    /// Output lane words after the circuit settled, in port order.
    pub fn settled_words(&self) -> &[u64] {
        &self.settled_words
    }

    /// Mask of lanes that latched at least one wrong output bit.
    pub fn error_lanes(&self) -> u64 {
        self.error_lanes
    }

    /// Whether lane `lane` suffered a timing error this step.
    pub fn timing_error(&self, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        (self.error_lanes >> lane) & 1 == 1
    }

    /// Settle time of lane `lane` in picoseconds.
    pub fn settle_ps(&self, lane: usize) -> f64 {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        ticks_to_ps(self.settle_ticks[lane])
    }

    /// Net transitions applied in lane `lane`, glitches included.
    pub fn transitions(&self, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        self.transitions[lane]
    }

    /// The scalar [`StepOutcome`] lane `lane` would have produced —
    /// bit-identical to stepping a [`crate::TimedSimulator`] through the
    /// same stimulus stream.
    pub fn outcome_for_lane(&self, lane: usize) -> StepOutcome {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let pick =
            |words: &[u64]| -> Vec<bool> { words.iter().map(|&w| (w >> lane) & 1 == 1).collect() };
        StepOutcome {
            sampled: pick(&self.sampled_words),
            settled: pick(&self.settled_words),
            timing_error: self.timing_error(lane),
            settle_ps: ticks_to_ps(self.settle_ticks[lane]),
            transitions: self.transitions[lane],
        }
    }
}

/// The immutable per-netlist tables of the packed timed engine: gate
/// functions, levels and connectivity, quantized net delays and the
/// fanout. Built once per (netlist, delays) and shared through an [`Arc`]
/// by every simulator of one measurement, so extra simulators cost only
/// their mutable state.
#[derive(Debug)]
pub(crate) struct TimedTables {
    /// Per-gate function, flattened for cache-friendly dispatch.
    functions: Vec<CellFunction>,
    /// Per-gate topological level, flattened from the [`Schedule`].
    gate_level: Vec<u32>,
    level_count: usize,
    /// Flattened gate connectivity: gate *g* reads the nets
    /// `gate_inputs[input_offsets[g]..input_offsets[g + 1]]` and drives
    /// `gate_outputs[output_offsets[g]..output_offsets[g + 1]]`.
    gate_inputs: Vec<u32>,
    input_offsets: Vec<u32>,
    gate_outputs: Vec<u32>,
    output_offsets: Vec<u32>,
    /// Per-net transport delay in ticks.
    delays_ticks: Vec<u64>,
    /// Per-net fanout gate ids in CSR form: net *n* feeds the gates
    /// `fanout[fanout_offsets[n]..fanout_offsets[n + 1]]`, one entry per
    /// input pin, in gate order.
    fanout_offsets: Vec<u32>,
    fanout: Vec<u32>,
}

impl TimedTables {
    /// Validates and quantizes `delays` exactly like
    /// [`crate::TimedSimulator::new`] and flattens `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists and
    /// [`NetlistError::InvalidDelay`] for NaN/negative/non-finite delays.
    pub(crate) fn new(netlist: &Netlist, delays: &NetDelays) -> Result<Self, NetlistError> {
        let delays_ticks = quantize_delays(delays)?;
        let schedule = netlist.schedule()?;
        let functions: Vec<CellFunction> = netlist
            .gates()
            .map(|(_, g)| netlist.library().cell(g.cell).function)
            .collect();
        let mut gate_level = Vec::with_capacity(netlist.gate_count());
        let mut gate_inputs = Vec::new();
        let mut input_offsets = Vec::with_capacity(netlist.gate_count() + 1);
        let mut gate_outputs = Vec::new();
        let mut output_offsets = Vec::with_capacity(netlist.gate_count() + 1);
        input_offsets.push(0);
        output_offsets.push(0);
        for (id, g) in netlist.gates() {
            gate_level.push(schedule.level(id));
            gate_inputs.extend(g.inputs.iter().map(|n| n.raw()));
            input_offsets.push(gate_inputs.len() as u32);
            gate_outputs.extend(g.outputs.iter().map(|n| n.raw()));
            output_offsets.push(gate_outputs.len() as u32);
        }
        // Counting sort of the input pins by net keeps each net's sinks in
        // gate order.
        let mut fanout_offsets = vec![0u32; netlist.net_count() + 1];
        for &net in &gate_inputs {
            fanout_offsets[net as usize + 1] += 1;
        }
        for n in 0..netlist.net_count() {
            fanout_offsets[n + 1] += fanout_offsets[n];
        }
        let mut cursor = fanout_offsets.clone();
        let mut fanout = vec![0u32; gate_inputs.len()];
        for gate in 0..netlist.gate_count() {
            let pins = input_offsets[gate] as usize..input_offsets[gate + 1] as usize;
            for &net in &gate_inputs[pins] {
                fanout[cursor[net as usize] as usize] = gate as u32;
                cursor[net as usize] += 1;
            }
        }
        Ok(Self {
            functions,
            gate_level,
            level_count: schedule.level_count() as usize,
            gate_inputs,
            input_offsets,
            gate_outputs,
            output_offsets,
            delays_ticks,
            fanout_offsets,
            fanout,
        })
    }

    fn fanout(&self, net: usize) -> &[u32] {
        &self.fanout[self.fanout_offsets[net] as usize..self.fanout_offsets[net + 1] as usize]
    }
}

/// Lane-parallel event-driven simulator with per-net transport delays on
/// the femtosecond tick grid.
///
/// Feed it either one logical stream in 64-vector chunks
/// ([`step_stream_batch`](Self::step_stream_batch) — what
/// [`measure_errors`](crate::measure_errors) and timed activity extraction
/// use) or 64 persistent independent streams
/// ([`step_streams`](Self::step_streams) — what the DCT pipeline's block
/// batching uses). The first call picks the mode; mixing modes on one
/// instance panics.
#[derive(Debug)]
pub struct PackedTimedSimulator<'nl> {
    netlist: &'nl Netlist,
    tables: Arc<TimedTables>,
    /// Current lane word of every net.
    values: Vec<u64>,
    /// Most recently scheduled lane word per net, for per-lane event
    /// suppression.
    scheduled: Vec<u64>,
    /// Event calendar: a timing wheel over the pending event groups,
    /// covering the largest net delay with one revolution.
    calendar: Calendar,
    /// Functional reference for stream initialization.
    golden: PackedEvaluator<'nl>,
    /// Scratch: settled lane words of the latest golden evaluation.
    settled_net: Vec<u64>,
    /// Last-lane settled bit per net from the previous batch (stream-batch
    /// mode): lane 0 of the next batch starts from this state.
    prev_bits: Vec<u64>,
    mode: Option<Mode>,
    /// Lane count pinned by the first `step_streams` call.
    stream_lanes: usize,
    started: bool,
    /// Dirty gates of the current tick, bucketed by topological level:
    /// draining the buckets in order yields levelized evaluation without
    /// a per-tick sort (which dominated the profile on small components).
    /// Each tick drains only the range of levels it dirtied.
    level_buckets: Vec<Vec<u32>>,
    dirty_stamp: Vec<u64>,
    dirty_epoch: u64,
    /// Cumulative per-net transition counts across all lanes.
    transition_counts: Vec<u64>,
    /// Per-lane scratch for the current step.
    settle_ticks: [u64; LANES],
    step_transitions: [u64; LANES],
    /// Event groups applied since construction (observability).
    groups_applied: u64,
    /// Whether every step reports `groups_applied`; a simulator that runs
    /// one chunk of a larger measurement leaves the report to its owner.
    reports_steps: bool,
}

impl<'nl> PackedTimedSimulator<'nl> {
    /// Prepares a packed timed simulator; delays are validated and
    /// quantized exactly like [`crate::TimedSimulator::new`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists and
    /// [`NetlistError::InvalidDelay`] for NaN/negative/non-finite delays.
    pub fn new(netlist: &'nl Netlist, delays: &NetDelays) -> Result<Self, NetlistError> {
        let tables = Arc::new(TimedTables::new(netlist, delays)?);
        Self::from_tables(netlist, tables, MAX_RING_BITS, true)
    }

    /// A simulator over tables shared with other simulators of the same
    /// measurement. It does not report its event groups per step: the
    /// owner sums them over all its simulators
    /// ([`groups_applied`](Self::groups_applied)) and reports once.
    pub(crate) fn with_tables(
        netlist: &'nl Netlist,
        tables: Arc<TimedTables>,
    ) -> Result<Self, NetlistError> {
        Self::from_tables(netlist, tables, MAX_RING_BITS, false)
    }

    /// [`new`](Self::new) with the calendar ring capped at
    /// 2^`max_ring_bits` slots, so tests can push events past the horizon.
    #[cfg(test)]
    fn with_max_ring_bits(
        netlist: &'nl Netlist,
        delays: &NetDelays,
        max_ring_bits: u32,
    ) -> Result<Self, NetlistError> {
        let tables = Arc::new(TimedTables::new(netlist, delays)?);
        Self::from_tables(netlist, tables, max_ring_bits, true)
    }

    fn from_tables(
        netlist: &'nl Netlist,
        tables: Arc<TimedTables>,
        max_ring_bits: u32,
        reports_steps: bool,
    ) -> Result<Self, NetlistError> {
        let golden = PackedEvaluator::new(netlist)?;
        let max_delay = tables.delays_ticks.iter().copied().max().unwrap_or(0);
        Ok(Self {
            netlist,
            values: vec![0; netlist.net_count()],
            scheduled: vec![0; netlist.net_count()],
            calendar: Calendar::new(max_delay, max_ring_bits),
            golden,
            settled_net: vec![0; netlist.net_count()],
            prev_bits: vec![0; netlist.net_count()],
            mode: None,
            stream_lanes: 0,
            started: false,
            level_buckets: vec![Vec::new(); tables.level_count],
            dirty_stamp: vec![0; netlist.gate_count()],
            dirty_epoch: 0,
            transition_counts: vec![0; netlist.net_count()],
            settle_ticks: [0; LANES],
            step_transitions: [0; LANES],
            groups_applied: 0,
            reports_steps,
            tables,
        })
    }

    /// Event groups this simulator applied since construction: the
    /// engine's deterministic work counter.
    pub(crate) fn groups_applied(&self) -> u64 {
        self.groups_applied
    }

    /// Number of primary inputs expected per stimulus vector.
    pub fn input_count(&self) -> usize {
        self.netlist.inputs().len()
    }

    /// Cumulative per-net transition counts summed over all lanes —
    /// indexed by net id, glitches included, the packed twin of
    /// [`crate::TimedSimulator::transition_counts`].
    pub fn transition_counts(&self) -> &[u64] {
        &self.transition_counts
    }

    /// Current lane word of every net (settled after a completed step).
    pub fn net_words(&self) -> &[u64] {
        &self.values
    }

    /// Simulates the next chunk of one logical stimulus stream: vector *l*
    /// of `batch` lands in lane *l*, and lane *l* starts from the settled
    /// state of the stream's previous vector (lane *l − 1*, or the last
    /// lane of the previous batch). Per lane this is bit-identical to
    /// stepping a scalar [`crate::TimedSimulator`] through the same stream
    /// — including the scalar engine's untimed first step.
    ///
    /// # Errors
    ///
    /// Propagates width mismatches.
    ///
    /// # Panics
    ///
    /// Panics on an empty or oversized batch, or if this simulator already
    /// ran in [`step_streams`](Self::step_streams) mode.
    pub fn step_stream_batch(
        &mut self,
        batch: &[Vec<bool>],
        clock_ps: f64,
    ) -> Result<PackedStepOutcome, NetlistError> {
        assert_ne!(
            self.mode,
            Some(Mode::Streams),
            "one PackedTimedSimulator cannot mix stream-batch and streams modes"
        );
        self.mode = Some(Mode::StreamBatch);
        let lanes = batch.len();
        assert!(
            (1..=LANES).contains(&lanes),
            "batch of {lanes} vectors (expected 1..={LANES})"
        );
        let mask = lane_mask(lanes);
        // One functional walk gives the settled state of every lane; the
        // per-lane *previous* state is the settled state one lane earlier.
        self.golden.eval_batch(batch)?;
        self.settled_net.copy_from_slice(self.golden.net_words());
        if !self.started {
            // Lane 0 of the very first batch starts from its own settled
            // state: zero input transitions, reproducing the scalar
            // engine's untimed first step.
            for (prev, &w) in self.prev_bits.iter_mut().zip(&self.settled_net) {
                *prev = w & 1;
            }
            self.started = true;
        }
        for i in 0..self.values.len() {
            let shifted = (self.settled_net[i] << 1) | self.prev_bits[i];
            self.values[i] = shifted;
            self.scheduled[i] = shifted;
        }
        // Input transitions at t = 0 (per-lane suppressed against the
        // shifted previous state).
        for &net in self.netlist.inputs() {
            let target = self.settled_net[net.index()];
            self.schedule_event(net.raw(), target, mask, 0);
        }
        let outcome = self.run(ps_to_ticks(clock_ps), mask, lanes);
        // Chain the stream: the next batch's lane 0 follows this batch's
        // last lane.
        for (prev, &w) in self.prev_bits.iter_mut().zip(&self.settled_net) {
            *prev = (w >> (lanes - 1)) & 1;
        }
        Ok(outcome)
    }

    /// Starts stream-batch mode in the middle of a stream: the next
    /// [`step_stream_batch`](Self::step_stream_batch) continues a stream
    /// whose previous vector was `previous`, so its lane 0 starts from that
    /// vector's settled state instead of taking the untimed first step.
    ///
    /// A stream batch carries nothing else across its boundary — the
    /// calendar is empty after every step, and every net starts from the
    /// settled state of the vector one lane earlier — so a stream cut
    /// anywhere and resumed on a primed simulator reproduces, lane by lane,
    /// the outcomes and summed transition counts of one continuous run.
    ///
    /// # Errors
    ///
    /// Propagates width mismatches.
    ///
    /// # Panics
    ///
    /// Panics if this simulator already ran in
    /// [`step_streams`](Self::step_streams) mode.
    pub fn prime_stream(&mut self, previous: &[bool]) -> Result<(), NetlistError> {
        assert_ne!(
            self.mode,
            Some(Mode::Streams),
            "one PackedTimedSimulator cannot mix stream-batch and streams modes"
        );
        self.mode = Some(Mode::StreamBatch);
        self.golden.eval_batch(&[previous.to_vec()])?;
        for (prev, &w) in self.prev_bits.iter_mut().zip(self.golden.net_words()) {
            *prev = w & 1;
        }
        self.started = true;
        Ok(())
    }

    /// Simulates one clock cycle of up to 64 *independent* streams: lane
    /// *l* keeps its own settled state across calls, so each lane is
    /// bit-identical to a dedicated scalar simulator stepping that lane's
    /// own stimulus sequence. The first call fixes the lane count and, like
    /// the scalar engine, settles functionally without timing.
    ///
    /// # Errors
    ///
    /// Propagates width mismatches.
    ///
    /// # Panics
    ///
    /// Panics on an empty or oversized batch, a lane count differing from
    /// the first call's, or if this simulator already ran in
    /// [`step_stream_batch`](Self::step_stream_batch) mode.
    pub fn step_streams(
        &mut self,
        batch: &[Vec<bool>],
        clock_ps: f64,
    ) -> Result<PackedStepOutcome, NetlistError> {
        assert_ne!(
            self.mode,
            Some(Mode::StreamBatch),
            "one PackedTimedSimulator cannot mix stream-batch and streams modes"
        );
        self.mode = Some(Mode::Streams);
        let lanes = batch.len();
        assert!(
            (1..=LANES).contains(&lanes),
            "batch of {lanes} vectors (expected 1..={LANES})"
        );
        let mask = lane_mask(lanes);
        if !self.started {
            self.stream_lanes = lanes;
            self.golden.eval_batch(batch)?;
            self.values.copy_from_slice(self.golden.net_words());
            self.scheduled.copy_from_slice(&self.values);
            self.started = true;
            let settled = self.snapshot_output_words();
            return Ok(PackedStepOutcome {
                lanes,
                sampled_words: settled.clone(),
                settled_words: settled,
                error_lanes: 0,
                settle_ticks: vec![0; lanes],
                transitions: vec![0; lanes],
            });
        }
        assert_eq!(
            lanes, self.stream_lanes,
            "streams mode pins the lane count at the first call"
        );
        let expected = self.input_count();
        for vector in batch {
            if vector.len() != expected {
                return Err(NetlistError::InputWidthMismatch {
                    expected,
                    provided: vector.len(),
                });
            }
        }
        for (pos, &net) in self.netlist.inputs().iter().enumerate() {
            let mut word = 0u64;
            for (lane, vector) in batch.iter().enumerate() {
                word |= u64::from(vector[pos]) << lane;
            }
            self.schedule_event(net.raw(), word, mask, 0);
        }
        Ok(self.run(ps_to_ticks(clock_ps), mask, lanes))
    }

    /// Resets to the uninitialized state (either mode may follow),
    /// clearing transition counters.
    pub fn reset(&mut self) {
        self.calendar.clear();
        self.mode = None;
        self.started = false;
        self.stream_lanes = 0;
        for count in &mut self.transition_counts {
            *count = 0;
        }
    }

    fn schedule_event(&mut self, net: u32, values: u64, mask: u64, time: u64) {
        let slot = &mut self.scheduled[net as usize];
        let changed = (*slot ^ values) & mask;
        if changed == 0 {
            return;
        }
        *slot = (*slot & !changed) | (values & changed);
        self.calendar.schedule(time, net, *slot, changed);
    }

    /// Re-evaluates `gate` for all lanes and schedules per-lane output
    /// changes one per-net delay later. Lanes whose inputs did not change
    /// recompute their already-scheduled value and are suppressed, so extra
    /// lane evaluations are no-ops — the key to scalar equivalence.
    fn evaluate_gate(&mut self, tables: &TimedTables, gate: u32, now: u64, active_mask: u64) {
        let g = gate as usize;
        let function = tables.functions[g];
        let in_range = tables.input_offsets[g] as usize..tables.input_offsets[g + 1] as usize;
        let inputs = &tables.gate_inputs[in_range];
        let mut in_buf = [0u64; MAX_INPUTS];
        for (slot, &net) in in_buf.iter_mut().zip(inputs) {
            *slot = self.values[net as usize];
        }
        let mut out_buf = [0u64; MAX_OUTPUTS];
        function.eval_words(&in_buf[..inputs.len()], &mut out_buf);
        let out_range = tables.output_offsets[g] as usize..tables.output_offsets[g + 1] as usize;
        for (pin, out_idx) in out_range.enumerate() {
            let out_net = tables.gate_outputs[out_idx];
            let delay = tables.delays_ticks[out_net as usize];
            self.schedule_event(
                out_net,
                out_buf[pin],
                active_mask,
                now.saturating_add(delay),
            );
        }
    }

    /// Drains the event calendar, sampling outputs at `clock_ticks` with
    /// the same edge-exclusive rule as the scalar engine.
    fn run(&mut self, clock_ticks: u64, active_mask: u64, lanes: usize) -> PackedStepOutcome {
        let tables = Arc::clone(&self.tables);
        let tables = &*tables;
        self.settle_ticks[..lanes].fill(0);
        let mut sampled: Option<Vec<u64>> = None;
        // Per-lane transition totals as bit-sliced vertical counters:
        // plane *i* holds bit *i* of every lane's count, so accumulating
        // one group is a short ripple-carry over whole words instead of a
        // loop over its set lanes.
        let mut trans_planes = [0u64; 24];
        // A zero-delay net's event lands back in the slot being drained;
        // the next `pop` returns the same tick and revisits it.
        while let Some((now, head)) = self.calendar.pop() {
            // Sample *before* applying this instant's batch: an arrival
            // exactly on the clock edge has zero setup margin.
            if sampled.is_none() && now >= clock_ticks {
                sampled = Some(self.snapshot_output_words());
            }
            self.dirty_epoch += 1;
            let epoch = self.dirty_epoch;
            let mut tick_changed = 0u64;
            let (mut low_level, mut high_level) = (usize::MAX, 0usize);
            let mut link = head;
            while link != NIL {
                let group = self.calendar.release(link);
                link = group.next;
                let net = group.net as usize;
                let changed = (self.values[net] ^ group.values) & group.mask;
                if changed == 0 {
                    continue;
                }
                self.values[net] = (self.values[net] & !changed) | (group.values & changed);
                self.transition_counts[net] += u64::from(changed.count_ones());
                self.groups_applied += 1;
                tick_changed |= changed;
                let mut carry = changed;
                for plane in &mut trans_planes {
                    if carry == 0 {
                        break;
                    }
                    let next = *plane & carry;
                    *plane ^= carry;
                    carry = next;
                }
                debug_assert_eq!(carry, 0, "per-lane transition count overflow");
                for &gate in tables.fanout(net) {
                    if self.dirty_stamp[gate as usize] != epoch {
                        self.dirty_stamp[gate as usize] = epoch;
                        let level = tables.gate_level[gate as usize] as usize;
                        self.level_buckets[level].push(gate);
                        low_level = low_level.min(level);
                        high_level = high_level.max(level);
                    }
                }
            }
            // Ticks are processed in order, so `now` is each lane's
            // settle-time maximum.
            let mut bits = tick_changed;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.settle_ticks[lane] = now;
            }
            if low_level > high_level {
                continue;
            }
            // Evaluate one instant's gates in levelized order: within a
            // tick the order cannot change results (evaluations only read
            // this tick's fully-applied `values` and schedule future
            // events), and draining per-level buckets gives that order
            // deterministically without a per-tick sort.
            let mut buckets = std::mem::take(&mut self.level_buckets);
            for bucket in &mut buckets[low_level..=high_level] {
                for &gate in bucket.iter() {
                    self.evaluate_gate(tables, gate, now, active_mask);
                }
                bucket.clear();
            }
            self.level_buckets = buckets;
        }
        for (lane, count) in self.step_transitions[..lanes].iter_mut().enumerate() {
            let mut total = 0u64;
            for (i, &plane) in trans_planes.iter().enumerate() {
                total |= ((plane >> lane) & 1) << i;
            }
            *count = total;
        }
        let settled = self.snapshot_output_words();
        let sampled = sampled.unwrap_or_else(|| settled.clone());
        let mut error_lanes = 0u64;
        for (&s, &g) in sampled.iter().zip(&settled) {
            error_lanes |= (s ^ g) & active_mask;
        }
        if self.reports_steps {
            aix_obs::count!(
                aix_obs::names::sim::TIMED_EVENT_GROUPS,
                groups = self.groups_applied,
                lanes = lanes
            );
        }
        PackedStepOutcome {
            lanes,
            sampled_words: sampled,
            settled_words: settled,
            error_lanes,
            settle_ticks: self.settle_ticks[..lanes].to_vec(),
            transitions: self.step_transitions[..lanes].to_vec(),
        }
    }

    fn snapshot_output_words(&self) -> Vec<u64> {
        self.netlist
            .outputs()
            .iter()
            .map(|(_, n)| self.values[n.index()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperandSource;
    use crate::{TimedSimulator, UniformOperands};
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use aix_sta::{analyze, NetDelays};

    fn adder(kind: AdderKind, width: usize) -> Netlist {
        let lib = std::sync::Arc::new(Library::nangate45_like());
        build_adder(&lib, kind, ComponentSpec::full(width)).unwrap()
    }

    fn assert_stream_matches_scalar(
        nl: &Netlist,
        delays: &NetDelays,
        clock_ps: f64,
        vectors: Vec<Vec<bool>>,
    ) {
        assert_ring_matches_scalar(nl, delays, clock_ps, vectors, MAX_RING_BITS);
    }

    /// [`assert_stream_matches_scalar`] with the calendar ring capped at
    /// 2^`ring_bits` slots; returns the event groups the packed run applied.
    fn assert_ring_matches_scalar(
        nl: &Netlist,
        delays: &NetDelays,
        clock_ps: f64,
        vectors: Vec<Vec<bool>>,
        ring_bits: u32,
    ) -> u64 {
        let mut scalar = TimedSimulator::new(nl, delays).unwrap();
        let mut packed = PackedTimedSimulator::with_max_ring_bits(nl, delays, ring_bits).unwrap();
        let mut scalar_outcomes = Vec::new();
        for v in &vectors {
            scalar_outcomes.push(scalar.step(v, clock_ps).unwrap());
        }
        let mut lane = 0;
        for chunk in vectors.chunks(LANES) {
            let out = packed.step_stream_batch(chunk, clock_ps).unwrap();
            for l in 0..chunk.len() {
                assert_eq!(
                    out.outcome_for_lane(l),
                    scalar_outcomes[lane],
                    "vector {lane} diverged"
                );
                lane += 1;
            }
        }
        assert_eq!(
            packed.transition_counts(),
            scalar.transition_counts(),
            "per-net transition totals diverged"
        );
        assert!(
            packed.calendar.is_empty(),
            "a finished step left events pending"
        );
        packed.groups_applied
    }

    #[test]
    fn stream_batches_match_scalar_fresh() {
        let nl = adder(AdderKind::RippleCarry, 8);
        let delays = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.4;
        let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 11).vectors(200).collect();
        assert_stream_matches_scalar(&nl, &delays, clock, vectors);
    }

    #[test]
    fn stream_batches_match_scalar_aged() {
        use aix_aging::{AgingModel, AgingScenario, Lifetime};
        let nl = adder(AdderKind::KoggeStone, 16);
        let fresh = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &fresh).unwrap().max_delay_ps();
        let aged = NetDelays::aged(
            &nl,
            &AgingModel::calibrated(),
            AgingScenario::worst_case(Lifetime::from_years(20.0)),
        );
        let vectors: Vec<Vec<bool>> = UniformOperands::new(16, 13).vectors(320).collect();
        assert_stream_matches_scalar(&nl, &aged, clock, vectors);
    }

    #[test]
    fn lane_tail_counts_match_scalar() {
        let nl = adder(AdderKind::CarrySelect, 8);
        let delays = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.3;
        for count in [1usize, 63, 64, 65] {
            let vectors: Vec<Vec<bool>> = UniformOperands::new(8, count as u64)
                .vectors(count)
                .collect();
            assert_stream_matches_scalar(&nl, &delays, clock, vectors);
        }
    }

    #[test]
    fn streams_mode_matches_per_lane_scalars() {
        // Three independent streams, one scalar simulator each.
        let nl = adder(AdderKind::RippleCarry, 4);
        let delays = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.5;
        let streams: Vec<Vec<Vec<bool>>> = (0..3u64)
            .map(|s| UniformOperands::new(4, 100 + s).vectors(40).collect())
            .collect();
        let mut scalars: Vec<TimedSimulator> = (0..3)
            .map(|_| TimedSimulator::new(&nl, &delays).unwrap())
            .collect();
        let mut packed = PackedTimedSimulator::new(&nl, &delays).unwrap();
        for step in 0..40 {
            let batch: Vec<Vec<bool>> = streams.iter().map(|s| s[step].clone()).collect();
            let out = packed.step_streams(&batch, clock).unwrap();
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let expect = scalar.step(&streams[lane][step], clock).unwrap();
                assert_eq!(
                    out.outcome_for_lane(lane),
                    expect,
                    "step {step} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn mode_mixing_panics() {
        let nl = adder(AdderKind::RippleCarry, 4);
        let delays = NetDelays::fresh(&nl);
        let mut sim = PackedTimedSimulator::new(&nl, &delays).unwrap();
        let batch: Vec<Vec<bool>> = UniformOperands::new(4, 1).vectors(2).collect();
        sim.step_streams(&batch, 100.0).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sim.step_stream_batch(&batch, 100.0);
        }));
        assert!(result.is_err(), "mixing modes must panic");
    }

    #[test]
    fn invalid_delays_rejected_like_scalar() {
        let nl = adder(AdderKind::RippleCarry, 4);
        let mut raw = NetDelays::fresh(&nl).as_slice().to_vec();
        raw[2] = f64::NAN;
        assert!(matches!(
            PackedTimedSimulator::new(&nl, &NetDelays::from_raw(raw)),
            Err(NetlistError::InvalidDelay { .. })
        ));
    }

    #[test]
    fn reset_allows_mode_switch() {
        let nl = adder(AdderKind::RippleCarry, 4);
        let delays = NetDelays::fresh(&nl);
        let mut sim = PackedTimedSimulator::new(&nl, &delays).unwrap();
        let batch: Vec<Vec<bool>> = UniformOperands::new(4, 2).vectors(3).collect();
        sim.step_streams(&batch, 100.0).unwrap();
        sim.reset();
        assert!(sim.transition_counts().iter().all(|&c| c == 0));
        sim.step_stream_batch(&batch, 100.0).unwrap();
    }

    fn multiplier(width: usize) -> Netlist {
        let lib = std::sync::Arc::new(Library::nangate45_like());
        aix_arith::build_multiplier(
            &lib,
            aix_arith::MultiplierKind::Array,
            ComponentSpec::full(width),
        )
        .unwrap()
    }

    fn aged_10y_worst(nl: &Netlist) -> NetDelays {
        use aix_aging::{AgingModel, AgingScenario, Lifetime};
        NetDelays::aged(
            nl,
            &AgingModel::calibrated(),
            AgingScenario::worst_case(Lifetime::YEARS_10),
        )
    }

    /// Pops every pending tick, returning each tick with its groups' nets
    /// in list order.
    fn drain(calendar: &mut Calendar) -> Vec<(u64, Vec<u32>)> {
        let mut drained = Vec::new();
        while let Some((tick, mut link)) = calendar.pop() {
            let mut nets = Vec::new();
            while link != NIL {
                let group = calendar.release(link);
                nets.push(group.net);
                link = group.next;
            }
            drained.push((tick, nets));
        }
        drained
    }

    #[test]
    fn ring_covers_the_largest_delay_within_its_cap() {
        let ring = |max_delay, cap| Calendar::new(max_delay, cap).slot_mask + 1;
        assert_eq!(ring(0, MAX_RING_BITS), 1 << MIN_RING_BITS);
        assert_eq!(ring(64, MAX_RING_BITS), 128);
        assert_eq!(ring(86_000, MAX_RING_BITS), 1 << 17);
        assert_eq!(ring(97_000, MAX_RING_BITS), 1 << 17);
        assert_eq!(ring(10_000_000, MAX_RING_BITS), 1 << MAX_RING_BITS);
        assert_eq!(ring(u64::MAX, MAX_RING_BITS), 1 << MAX_RING_BITS);
        assert_eq!(ring(86_000, 10), 1 << 10);
    }

    /// The wheel against an ordered-map model of the calendar it replaced:
    /// random schedules from the tick being drained, zero-delay reinserts
    /// and delays far past the horizon must pop the same ticks with the
    /// same FIFO group order.
    #[test]
    fn calendar_matches_an_ordered_map_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeMap;
        for ring_bits in [MIN_RING_BITS, 8, 12] {
            let mut rng = StdRng::seed_from_u64(u64::from(ring_bits));
            let mut calendar = Calendar::new(u64::MAX, ring_bits);
            let horizon = calendar.slot_mask + 1;
            let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            let mut next_net = 0u32;
            let mut now = 0;
            for pops in 0.. {
                let fanout = if pops == 0 {
                    8
                } else if pops < 3000 {
                    rng.gen_range(0..3)
                } else {
                    0
                };
                for _ in 0..fanout {
                    let delay = match rng.gen_range(0..10) {
                        0 => 0,
                        1 => horizon - 1,
                        2 => horizon,
                        3 => rng.gen_range(horizon..40 * horizon),
                        _ => rng.gen_range(1..horizon),
                    };
                    calendar.schedule(now + delay, next_net, 0, 1);
                    model.entry(now + delay).or_default().push(next_net);
                    next_net += 1;
                }
                let Some((tick, mut link)) = calendar.pop() else {
                    break;
                };
                let (expected_tick, expected_nets) = model.pop_first().expect("model has events");
                assert_eq!(tick, expected_tick, "ring {ring_bits}: pop {pops}");
                let mut nets = Vec::new();
                while link != NIL {
                    let group = calendar.release(link);
                    nets.push(group.net);
                    link = group.next;
                }
                assert_eq!(nets, expected_nets, "ring {ring_bits}: tick {tick}");
                now = tick;
            }
            assert!(model.is_empty(), "ring {ring_bits}: wheel lost events");
            assert!(calendar.is_empty());
            assert_eq!(calendar.now, 0, "a drained calendar rewinds to tick 0");
        }
    }

    #[test]
    fn zero_delay_reinsert_revisits_the_same_tick() {
        let mut calendar = Calendar::new(1000, MAX_RING_BITS);
        calendar.schedule(500, 1, 0, 1);
        calendar.schedule(700, 2, 0, 1);
        let (tick, link) = calendar.pop().unwrap();
        assert_eq!(tick, 500);
        assert_eq!(calendar.release(link).next, NIL);
        calendar.schedule(500, 3, 0, 1);
        calendar.schedule(500, 4, 0, 1);
        assert_eq!(
            drain(&mut calendar),
            vec![(500, vec![3, 4]), (700, vec![2])]
        );
    }

    #[test]
    fn overflow_groups_keep_their_place_at_the_horizon_edge() {
        // From tick 0, ticks R and 2R − 1 lie beyond a ring of R slots.
        // Once the cursor reaches R, 2R − 1 is the ring's last slot, and a
        // group scheduled there from R queues behind the one waiting since
        // tick 0.
        let mut calendar = Calendar::new(0, MIN_RING_BITS);
        let ring = calendar.slot_mask + 1;
        calendar.schedule(ring, 1, 0, 1);
        calendar.schedule(2 * ring - 1, 2, 0, 1);
        let (tick, link) = calendar.pop().unwrap();
        assert_eq!((tick, calendar.release(link).net), (ring, 1));
        calendar.schedule(2 * ring - 1, 3, 0, 1);
        assert_eq!(drain(&mut calendar), vec![(2 * ring - 1, vec![2, 3])]);
    }

    #[test]
    fn zero_delay_nets_match_scalar() {
        let nl = adder(AdderKind::RippleCarry, 8);
        let fresh = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &fresh).unwrap().max_delay_ps() * 0.5;
        // Every other net switches in zero time, so events reinsert into
        // the tick being drained; all-zero delays settle within tick 0.
        let mixed: Vec<f64> = fresh
            .as_slice()
            .iter()
            .enumerate()
            .map(|(net, &d)| if net % 2 == 0 { 0.0 } else { d })
            .collect();
        let zero = vec![0.0; fresh.as_slice().len()];
        for delays in [mixed, zero] {
            let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 21).vectors(130).collect();
            assert_stream_matches_scalar(&nl, &NetDelays::from_raw(delays), clock, vectors);
        }
    }

    #[test]
    fn event_beyond_the_horizon_matches_scalar() {
        let mut calendar = Calendar::new(u64::MAX, MAX_RING_BITS);
        let far = 5 << MAX_RING_BITS;
        calendar.schedule(far, 1, 0, 1);
        calendar.schedule(10, 2, 0, 1);
        let (tick, link) = calendar.pop().unwrap();
        assert_eq!((tick, calendar.release(link).net), (10, 2));
        // Scheduled from tick 10, `far` is still beyond the horizon; it
        // keeps its place ahead of the same-tick group scheduled once the
        // ring reaches it.
        calendar.schedule(far, 3, 0, 1);
        calendar.schedule(far - 1, 4, 0, 1);
        assert_eq!(calendar.overflow.len(), 3);
        assert_eq!(
            drain(&mut calendar),
            vec![(far - 1, vec![4]), (far, vec![1, 3])]
        );

        // One sum bit of an adder arrives a microsecond late: the ring stays
        // capped and the event waits in the overflow heap.
        let nl = adder(AdderKind::KoggeStone, 8);
        let mut raw = NetDelays::fresh(&nl).as_slice().to_vec();
        let (_, slow) = nl.outputs()[3];
        raw[slow.index()] = 1.0e6;
        let delays = NetDelays::from_raw(raw);
        let clock = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        let sim = PackedTimedSimulator::new(&nl, &delays).unwrap();
        assert_eq!(sim.calendar.slot_mask + 1, 1 << MAX_RING_BITS);
        let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 5).vectors(150).collect();
        assert_stream_matches_scalar(&nl, &delays, clock, vectors);
    }

    #[test]
    fn steps_spanning_many_revolutions_match_scalar() {
        // A ripple-carry-32 settles over hundreds of picoseconds, so at the
        // minimum ring (64 ticks) every event starts in the overflow heap
        // and a step wraps the ring thousands of times; at 2^12 ticks the
        // short delays fit the ring and the long ones overflow.
        let nl = adder(AdderKind::RippleCarry, 32);
        let aged = aged_10y_worst(&nl);
        let clock = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        let vectors: Vec<Vec<bool>> = UniformOperands::new(32, 17).vectors(130).collect();
        let natural = assert_ring_matches_scalar(&nl, &aged, clock, vectors.clone(), MAX_RING_BITS);
        for ring_bits in [MIN_RING_BITS, 12] {
            let capped = assert_ring_matches_scalar(&nl, &aged, clock, vectors.clone(), ring_bits);
            assert_eq!(capped, natural, "ring 2^{ring_bits} changed the work done");
        }
        let mut sim = PackedTimedSimulator::with_max_ring_bits(&nl, &aged, MIN_RING_BITS).unwrap();
        let out = sim.step_stream_batch(&vectors[..64], clock).unwrap();
        let settle = (0..64).map(|lane| out.settle_ps(lane)).fold(0.0, f64::max);
        assert!(
            ps_to_ticks(settle) > 100 << MIN_RING_BITS,
            "settle at {settle} ps spans too few revolutions"
        );
    }

    #[test]
    fn reset_after_a_step_leaves_nothing_pending() {
        let nl = adder(AdderKind::RippleCarry, 8);
        let delays = NetDelays::fresh(&nl);
        let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 4).vectors(64).collect();
        let mut sim = PackedTimedSimulator::new(&nl, &delays).unwrap();
        let first = sim.step_stream_batch(&vectors, 50.0).unwrap();
        sim.reset();
        assert!(sim.calendar.is_empty());
        // Events left behind mid-stream are dropped too.
        sim.schedule_event(0, !0, !0, 1 << 40);
        sim.schedule_event(1, !0, !0, 7);
        sim.reset();
        assert!(sim.calendar.is_empty());
        assert_eq!(sim.calendar.now, 0);
        sim.values.fill(0);
        sim.scheduled.fill(0);
        sim.prev_bits.fill(0);
        assert_eq!(sim.step_stream_batch(&vectors, 50.0).unwrap(), first);
    }

    /// Event groups applied on two fixed cases, recorded before the
    /// calendar became a timing wheel: a calendar change must not alter
    /// the work the engine does.
    #[test]
    fn event_group_work_is_pinned() {
        let count = |nl: &Netlist, width: usize| {
            let clock = analyze(nl, &NetDelays::fresh(nl)).unwrap().max_delay_ps();
            let aged = aged_10y_worst(nl);
            let vectors: Vec<Vec<bool>> = UniformOperands::new(width, 7).vectors(256).collect();
            let mut sim = PackedTimedSimulator::new(nl, &aged).unwrap();
            for chunk in vectors.chunks(LANES) {
                sim.step_stream_batch(chunk, clock).unwrap();
            }
            sim.groups_applied
        };
        assert_eq!(count(&adder(AdderKind::KoggeStone, 32), 32), 6950);
        assert_eq!(count(&multiplier(16), 16), 16424);
    }

    #[test]
    fn many_groups_share_a_slot_across_a_ring_wrap() {
        // Slot 5 serves tick 5, then tick R + 5 once the cursor passes
        // R − 1, then tick 2R + 5 for groups that waited in the overflow
        // heap; each list keeps its own FIFO order, and zero-delay
        // reinserts while a list drains start a fresh list in the slot.
        let mut calendar = Calendar::new(0, MIN_RING_BITS);
        let ring = calendar.slot_mask + 1;
        for net in 0..200 {
            calendar.schedule(5, net, 0, 1);
        }
        calendar.schedule(ring - 1, 999, 0, 1);
        let (tick, link) = calendar.pop().unwrap();
        assert_eq!(tick, 5);
        let mut nets = Vec::new();
        let mut link = link;
        while link != NIL {
            let group = calendar.release(link);
            nets.push(group.net);
            link = group.next;
        }
        assert_eq!(nets, (0..200).collect::<Vec<_>>());
        let (tick, link) = calendar.pop().unwrap();
        assert_eq!((tick, calendar.release(link).net), (ring - 1, 999));
        for net in 1000..1300 {
            calendar.schedule(ring + 5, net, 0, 1);
            calendar.schedule(2 * ring + 5, net + 1000, 0, 1);
        }
        let (tick, mut link) = calendar.pop().unwrap();
        assert_eq!(tick, ring + 5);
        let mut nets = Vec::new();
        while link != NIL {
            let group = calendar.release(link);
            nets.push(group.net);
            link = group.next;
            if group.net < 1100 {
                calendar.schedule(ring + 5, group.net + 3000, 0, 1);
            }
        }
        assert_eq!(nets, (1000..1300).collect::<Vec<_>>());
        assert_eq!(
            drain(&mut calendar),
            vec![
                (ring + 5, (4000..4100).collect()),
                (2 * ring + 5, (2000..2300).collect()),
            ]
        );
        assert!(calendar.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// A stream cut at arbitrary vectors and resumed on primed
        /// simulators over shared tables reproduces one continuous
        /// stream: every lane outcome, and the summed per-net transition
        /// counts.
        #[test]
        fn primed_chunks_reproduce_one_continuous_stream(
            seed in 0u64..1_000,
            count in 1usize..400,
            cuts in proptest::collection::vec(0usize..400, 0..6),
            aged in proptest::prelude::any::<bool>(),
        ) {
            let nl = multiplier(4);
            let fresh = NetDelays::fresh(&nl);
            let clock = analyze(&nl, &fresh).unwrap().max_delay_ps() * 0.8;
            let delays = if aged { aged_10y_worst(&nl) } else { fresh };
            let vectors: Vec<Vec<bool>> = UniformOperands::new(4, seed).vectors(count).collect();
            let mut continuous = PackedTimedSimulator::new(&nl, &delays).unwrap();
            let mut expected = Vec::new();
            for batch in vectors.chunks(LANES) {
                let out = continuous.step_stream_batch(batch, clock).unwrap();
                expected.extend((0..batch.len()).map(|lane| out.outcome_for_lane(lane)));
            }

            let mut bounds: Vec<usize> = cuts.into_iter().filter(|&c| c < count).collect();
            bounds.extend([0, count]);
            bounds.sort_unstable();
            bounds.dedup();
            let tables = Arc::new(TimedTables::new(&nl, &delays).unwrap());
            let mut totals = vec![0u64; nl.net_count()];
            let mut outcomes = Vec::new();
            for pair in bounds.windows(2) {
                let mut sim = PackedTimedSimulator::with_tables(&nl, Arc::clone(&tables)).unwrap();
                if pair[0] > 0 {
                    sim.prime_stream(&vectors[pair[0] - 1]).unwrap();
                }
                for batch in vectors[pair[0]..pair[1]].chunks(LANES) {
                    let out = sim.step_stream_batch(batch, clock).unwrap();
                    outcomes.extend((0..batch.len()).map(|lane| out.outcome_for_lane(lane)));
                }
                for (total, &c) in totals.iter_mut().zip(sim.transition_counts()) {
                    *total += c;
                }
            }
            proptest::prop_assert_eq!(outcomes, expected);
            proptest::prop_assert_eq!(&totals[..], continuous.transition_counts());
        }
    }
}
