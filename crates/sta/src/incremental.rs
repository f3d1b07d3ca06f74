//! Incremental timing under drive-strength changes.

use crate::analysis::latest_input_ps;
use crate::delays::arc_delay_ps;
use crate::{analyze, NetDelays, TimingReport};
use aix_cells::CellId;
use aix_netlist::{GateId, NetDriver, NetId, Netlist, NetlistError, Schedule, OUTPUT_PORT_LOAD_FF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

/// Sink entry standing for a primary-output port rather than a gate pin.
const PORT: u32 = u32::MAX;

/// Work-queue key of gate `raw`: `(level << 32) | id` sorts in schedule
/// order.
fn queue_key(schedule: &Schedule, raw: u32) -> Reverse<u64> {
    let level = u64::from(schedule.level(GateId::from_raw(raw)));
    Reverse((level << 32) | u64::from(raw))
}

/// Positions of `net`'s sinks in the CSR sink array.
fn sink_range(sink_start: &[u32], net: NetId) -> Range<usize> {
    sink_start[net.index()] as usize..sink_start[net.index() + 1] as usize
}

/// Loads, delays and arrivals of every net, kept up to date in place while
/// gates are resized — the timer behind synthesis sizing and area recovery.
///
/// The timer borrows the netlist mutably and is the only way to resize its
/// gates while it lives, so its state always describes the netlist. After
/// every resize the state is bit-for-bit what [`Netlist::net_loads_ff`],
/// the [`NetDelays`] constructors and [`analyze`] compute from scratch:
///
/// * the loads of the resized gate's input nets are re-summed in the same
///   order as `net_loads_ff` (sink pins in gate-id order, then output
///   ports);
/// * the delays of those nets and of the gate's outputs are re-derived with
///   the per-net formula the `NetDelays` constructors use;
/// * arrivals are re-propagated through the fanout cone in schedule order,
///   stopping wherever an arrival is bit-for-bit unchanged.
///
/// Fanout is stored as flat CSR arrays, so an update allocates nothing
/// beyond its work queue.
///
/// # Examples
///
/// ```
/// use aix_arith::{build_adder, AdderKind, ComponentSpec};
/// use aix_cells::Library;
/// use aix_netlist::GateId;
/// use aix_sta::{analyze, IncrementalTimer, NetDelays};
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let mut adder = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8))?;
/// let mut timer = IncrementalTimer::new(&mut adder, |_gate| 1.0)?;
/// let gate = GateId::from_raw(0);
/// let stronger = lib.upsize(timer.netlist().gate(gate).cell).expect("X1 cell");
/// timer.resize_gate(gate, stronger)?;
/// let incremental = timer.report().max_delay_ps();
/// let scratch = analyze(timer.netlist(), &NetDelays::fresh(timer.netlist()))?;
/// assert_eq!(incremental.to_bits(), scratch.max_delay_ps().to_bits());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct IncrementalTimer<'a> {
    netlist: &'a mut Netlist,
    schedule: Arc<Schedule>,
    /// Aging derating factor of each gate, indexed by gate id.
    factors: Vec<f64>,
    /// Net `n` is read by `sinks[sink_start[n]..sink_start[n + 1]]`: one
    /// gate id per input pin in gate-id order, then one [`PORT`] per
    /// primary output the net drives.
    sink_start: Vec<u32>,
    sinks: Vec<u32>,
    loads_ff: Vec<f64>,
    delays: NetDelays,
    report: TimingReport,
    /// Gates to re-time, in schedule order (see [`queue_key`]).
    queue: BinaryHeap<Reverse<u64>>,
}

impl<'a> IncrementalTimer<'a> {
    /// Times `netlist` from scratch with each gate's delays derated by
    /// `factor(gate_index)` (1.0 is fresh; see [`NetDelays`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(
        netlist: &'a mut Netlist,
        factor: impl Fn(usize) -> f64,
    ) -> Result<Self, NetlistError> {
        let schedule = netlist.schedule()?;
        let factors: Vec<f64> = (0..netlist.gate_count()).map(factor).collect();
        let mut sink_start = vec![0u32; netlist.net_count() + 1];
        for (_, gate) in netlist.gates() {
            for net in &gate.inputs {
                sink_start[net.index() + 1] += 1;
            }
        }
        for (_, net) in netlist.outputs() {
            sink_start[net.index() + 1] += 1;
        }
        for i in 1..sink_start.len() {
            sink_start[i] += sink_start[i - 1];
        }
        let mut fill = sink_start.clone();
        let mut sinks = vec![0u32; sink_start[netlist.net_count()] as usize];
        let mut push = |net: NetId, sink: u32| {
            sinks[fill[net.index()] as usize] = sink;
            fill[net.index()] += 1;
        };
        for (id, gate) in netlist.gates() {
            for &net in &gate.inputs {
                push(net, id.raw());
            }
        }
        for (_, net) in netlist.outputs() {
            push(*net, PORT);
        }
        let loads_ff = netlist.net_loads_ff();
        let delays = NetDelays::build(netlist, &loads_ff, |gate, _| factors[gate]);
        let report = analyze(netlist, &delays)?;
        Ok(Self {
            netlist,
            schedule,
            factors,
            sink_start,
            sinks,
            loads_ff,
            delays,
            report,
            queue: BinaryHeap::new(),
        })
    }

    /// The timed netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Capacitive load of each net in femtofarads, indexed by net id.
    pub fn loads_ff(&self) -> &[f64] {
        &self.loads_ff
    }

    /// Current per-net delays.
    pub fn delays(&self) -> &NetDelays {
        &self.delays
    }

    /// Current arrivals, critical delay and critical output.
    pub fn report(&self) -> &TimingReport {
        &self.report
    }

    /// Moves `gate` onto `cell` (same function, another drive strength) and
    /// re-times the affected cone.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CellFunctionMismatch`] if `cell` implements
    /// another function; nothing changes then.
    pub fn resize_gate(&mut self, gate: GateId, cell: CellId) -> Result<(), NetlistError> {
        self.resize_gates([(gate, cell)])
    }

    /// Applies every `(gate, cell)` move in order, then re-times once.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CellFunctionMismatch`] at the first move to
    /// a cell of another function. The moves before it stay applied and
    /// timed; it and the moves after it are not applied.
    pub fn resize_gates(
        &mut self,
        moves: impl IntoIterator<Item = (GateId, CellId)>,
    ) -> Result<(), NetlistError> {
        let mut result = Ok(());
        for (gate, cell) in moves {
            if let Err(err) = self.netlist.resize_gate(gate, cell) {
                result = Err(err);
                break;
            }
            // The gate's input pin capacitance changed: re-sum the loads of
            // the nets it reads and re-derive their drivers' delays.
            for pin in 0..self.netlist.gate(gate).inputs.len() {
                let net = self.netlist.gate(gate).inputs[pin];
                self.reload(net);
            }
            // Its drive changed: re-derive its own output delays.
            for pin in 0..self.netlist.gate(gate).outputs.len() {
                let net = self.netlist.gate(gate).outputs[pin];
                self.rederive(net, gate);
            }
            self.enqueue(gate);
        }
        self.propagate();
        result
    }

    /// Re-sums the load on `net` and re-derives its delay.
    fn reload(&mut self, net: NetId) {
        let library = self.netlist.library();
        let mut load = 0.0;
        for &sink in &self.sinks[sink_range(&self.sink_start, net)] {
            load += if sink == PORT {
                OUTPUT_PORT_LOAD_FF
            } else {
                library
                    .cell(self.netlist.gate(GateId::from_raw(sink)).cell)
                    .input_cap_ff
            };
        }
        self.loads_ff[net.index()] = load;
        if let NetDriver::Gate { gate, .. } = self.netlist.net(net).driver {
            self.rederive(net, gate);
            self.enqueue(gate);
        }
    }

    /// Re-derives the delay of `net`, driven by `driver`.
    fn rederive(&mut self, net: NetId, driver: GateId) {
        let cell = self.netlist.library().cell(self.netlist.gate(driver).cell);
        self.delays.as_mut_slice()[net.index()] = arc_delay_ps(
            cell,
            self.loads_ff[net.index()],
            self.factors[driver.index()],
        );
    }

    fn enqueue(&mut self, gate: GateId) {
        self.queue.push(queue_key(&self.schedule, gate.raw()));
    }

    /// Re-times the queued gates in schedule order, queueing the readers of
    /// every output whose arrival changed.
    fn propagate(&mut self) {
        let mut last = None;
        while let Some(Reverse(key)) = self.queue.pop() {
            if last == Some(key) {
                continue;
            }
            last = Some(key);
            let gate = self.netlist.gate(GateId::from_raw(key as u32));
            let input_arrival = latest_input_ps(gate, self.report.arrivals());
            for &out in &gate.outputs {
                let arrival = input_arrival + self.delays.of(out.index());
                let slot = &mut self.report.arrivals_mut()[out.index()];
                if arrival.to_bits() == slot.to_bits() {
                    continue;
                }
                *slot = arrival;
                for &sink in &self.sinks[sink_range(&self.sink_start, out)] {
                    if sink != PORT {
                        self.queue.push(queue_key(&self.schedule, sink));
                    }
                }
            }
        }
        self.report.summarize_outputs(self.netlist);
    }
}
