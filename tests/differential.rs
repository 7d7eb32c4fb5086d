//! Differential testing: the predecoded micro-op interpreter and the
//! tree-walking reference interpreter are two implementations of the
//! same machine, and every profile they produce must be bit-identical —
//! metrics, `%pic` registers, flow-profile bytes, CCT bytes, and
//! per-block execution counts. This is what licenses every hot-path
//! optimization in the predecoded pipeline: any divergence the
//! optimizations introduce fails here, over the whole workload suite
//! and every profiling configuration.

#![cfg(feature = "reference")]

use pp::instrument::{instrument_program, InstrumentOptions};
use pp::ir::build::{ProcBuilder, ProgramBuilder};
use pp::ir::{BlockId, HwEvent, Operand, Program};
use pp::profiler::{Profiler, RunConfig};
use pp::usim::reference::ReferenceMachine;
use pp::usim::{ExecError, FaultPlan, Machine, MachineConfig, NullSink, RunResult};

const EVENTS: (HwEvent, HwEvent) = (HwEvent::Insts, HwEvent::DcMiss);

/// Every profiling configuration the profiler supports, including the
/// uninstrumented base.
fn configs() -> Vec<RunConfig> {
    vec![
        RunConfig::Base,
        RunConfig::EdgeFreq,
        RunConfig::FlowFreq,
        RunConfig::FlowHw { events: EVENTS },
        RunConfig::ContextHw { events: EVENTS },
        RunConfig::ContextFlow,
        RunConfig::CombinedHw { events: EVENTS },
    ]
}

fn flow_bytes(flow: &pp::profiler::FlowProfile) -> Vec<u8> {
    let mut v = Vec::new();
    flow.write_to(&mut v).expect("serialize flow profile");
    v
}

fn cct_bytes(cct: &pp::cct::CctRuntime) -> Vec<u8> {
    let mut v = Vec::new();
    pp::cct::write_cct(cct, &mut v).expect("serialize cct");
    v
}

/// Asserts two machine results (from any interpreter/fusion
/// combination, complete or stopped) agree exactly.
fn assert_machines_identical(a: &RunResult, b: &RunResult, ctx: &str) {
    assert_eq!(a.metrics, b.metrics, "metrics: {ctx}");
    assert_eq!(a.pics, b.pics, "%pic registers: {ctx}");
    assert_eq!(
        a.counter_note, b.counter_note,
        "wrap-reconciliation note: {ctx}"
    );
    assert_eq!(a.uops, b.uops, "uops: {ctx}");
    assert_eq!(a.fault_log, b.fault_log, "fault log: {ctx}");
    assert_eq!(a.resident_pages, b.resident_pages, "resident pages: {ctx}");
    assert_eq!(a.code_bytes, b.code_bytes, "code bytes: {ctx}");
}

/// Asserts two runs (from any interpreter/fusion combination) agree on
/// machine state and serialized profiles, byte for byte.
fn assert_runs_identical(a: &pp::profiler::RunOutcome, b: &pp::profiler::RunOutcome, ctx: &str) {
    assert_machines_identical(&a.machine, &b.machine, ctx);

    assert_eq!(a.flow.is_some(), b.flow.is_some(), "flow presence: {ctx}");
    if let (Some(fa), Some(fb)) = (&a.flow, &b.flow) {
        assert_eq!(flow_bytes(fa), flow_bytes(fb), "flow bytes: {ctx}");
    }
    assert_eq!(a.cct.is_some(), b.cct.is_some(), "cct presence: {ctx}");
    if let (Some(ca), Some(cb)) = (&a.cct, &b.cct) {
        assert_eq!(cct_bytes(ca), cct_bytes(cb), "cct bytes: {ctx}");
    }
}

/// The tentpole guarantee: for every workload in the suite and every
/// configuration, the fused interpreter, the unfused interpreter, and
/// the tree-walking reference produce the same machine state and the
/// same serialized profiles, byte for byte. Superinstruction fusion is
/// a three-way cross-check here: fused vs reference AND unfused vs
/// fused, so a fusion bug can't hide behind a matching reference bug.
#[test]
fn every_profile_is_bit_identical_across_interpreters() {
    let profiler = Profiler::default();
    let unfused = Profiler::new(MachineConfig {
        no_fuse: true,
        ..MachineConfig::default()
    });
    for w in pp::workloads::suite(0.05) {
        for config in configs() {
            let ctx = format!("{} under {config}", w.name);
            let a = profiler
                .run(&w.program, config)
                .unwrap_or_else(|e| panic!("optimized {ctx}: {e}"));
            let b = profiler
                .run_reference(&w.program, config)
                .unwrap_or_else(|e| panic!("reference {ctx}: {e}"));
            let u = unfused
                .run(&w.program, config)
                .unwrap_or_else(|e| panic!("unfused {ctx}: {e}"));
            assert!(a.fault.is_none(), "optimized {ctx} faulted");
            assert!(b.fault.is_none(), "reference {ctx} faulted");
            assert!(u.fault.is_none(), "unfused {ctx} faulted");

            assert_runs_identical(&a, &b, &format!("fused vs reference, {ctx}"));
            assert_runs_identical(&u, &a, &format!("unfused vs fused, {ctx}"));
        }
    }
}

/// Micro-op counts each run is stopped at: a dense window early in the
/// run (set-up loops and the first calls) and one further in (the
/// kernels), each wider than the loop bodies it crosses, so some stop
/// lands mid-FP-chain, just before a store, inside a callee and inside
/// every fused shape the suite executes.
fn stop_points() -> impl Iterator<Item = u64> {
    const WINDOW: u64 = 64;
    (1_000..1_000 + WINDOW).chain(10_000..10_000 + WINDOW)
}

/// `program` as `config` instruments it (the base configuration leaves
/// it alone).
fn instrumented(program: &Program, config: RunConfig) -> Program {
    match config.mode() {
        None => program.clone(),
        Some(mode) => {
            let options = InstrumentOptions::new(mode).with_events(EVENTS.0, EVENTS.1);
            instrument_program(program, options)
                .expect("instrument")
                .program
        }
    }
}

/// Runs `program` on the arena machine until `plan` stops it.
fn stopped_run(
    program: &Program,
    config: MachineConfig,
    plan: FaultPlan,
) -> (Option<ExecError>, RunResult) {
    let mut m = Machine::new(program, config);
    m.inject_faults(plan);
    let err = m.run(&mut NullSink).err();
    (err, m.partial_result())
}

/// Stops `program` at each of `stops` on the fused, unfused and
/// reference machines and asserts they agree exactly.
fn assert_stops_agree(program: &Program, stops: impl Iterator<Item = u64>, name: &str) {
    let fused = MachineConfig::default();
    let unfused = MachineConfig {
        no_fuse: true,
        ..fused
    };
    for at in stops {
        let ctx = format!("{name}, abort at {at}");
        let plan = FaultPlan::default().abort_at_uops(at);
        let (a_err, a) = stopped_run(program, fused, plan);
        let (u_err, u) = stopped_run(program, unfused, plan);
        let mut r = ReferenceMachine::new(program, fused);
        r.inject_faults(plan);
        let b_err = r.run(&mut NullSink).err();
        let b = r.partial_result();
        assert_eq!(a_err, b_err, "error, fused vs reference: {ctx}");
        assert_eq!(u_err, a_err, "error, unfused vs fused: {ctx}");
        assert_machines_identical(&a, &b, &format!("fused vs reference, {ctx}"));
        assert_machines_identical(&u, &a, &format!("unfused vs fused, {ctx}"));
    }
}

/// A loop holding the two fused shapes the suite never executes at test
/// scale: `bin+branch` and `bin+storer` (register operands).
fn rare_fused_shapes() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.procedure("main");
    let e = f.entry_block();
    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    let (i, n, c, v, base) = (
        f.new_reg(),
        f.new_reg(),
        f.new_reg(),
        f.new_reg(),
        f.new_reg(),
    );
    f.block(e)
        .mov(i, 0i64)
        .mov(n, 50i64)
        .mov(base, 0x10_0000i64)
        .jump(head);
    f.block(head)
        .cmp_lt(c, i, Operand::Reg(n))
        .branch(c, body, exit);
    f.block(body)
        .add(v, v, Operand::Reg(i))
        .store(Operand::Reg(v), base, 8)
        .add(i, i, 1i64)
        .jump(head);
    f.block(exit).ret();
    let main = f.finish();
    pb.finish(main)
}

/// A fused op is its halves with the loop top's checks between them, and
/// every exit settles the register-resident clock: wherever
/// `abort_at_uops` lands, the fused, unfused and reference machines stop
/// on the same micro-op with the same error, counters and `%pic`s.
#[test]
fn partial_results_agree_at_every_stop_point() {
    for w in pp::workloads::suite(0.01) {
        for config in [
            RunConfig::Base,
            RunConfig::FlowHw { events: EVENTS },
            RunConfig::CombinedHw { events: EVENTS },
        ] {
            let program = instrumented(&w.program, config);
            assert_stops_agree(
                &program,
                stop_points(),
                &format!("{} under {config}", w.name),
            );
        }
    }
    // Every micro-op of this program's whole run, and one past its end.
    let program = rare_fused_shapes();
    let full = Machine::new(&program, MachineConfig::default())
        .run(&mut NullSink)
        .expect("complete run")
        .uops;
    assert_stops_agree(&program, 1..=full + 1, "rare fused shapes");
}

/// I-cache shapes where the block-entry fetch memo works hardest: a
/// 512 B 2-way cache (256 B per way) that many blocks span more than one
/// way of, so the memo must refuse to record them, and 4-way and 1-way
/// caches on the generic LRU path, where every access moves the cache's
/// generation.
fn stressed_icaches() -> [(&'static str, MachineConfig); 3] {
    let default = MachineConfig::default();
    [
        ("tiny 2-way", MachineConfig::tiny_cache()),
        (
            "4-way",
            MachineConfig {
                icache_ways: 4,
                ..default
            },
        ),
        (
            "1-way",
            MachineConfig {
                icache_ways: 1,
                ..default
            },
        ),
    ]
}

/// Runs `program` to completion on the reference interpreter and on the
/// fused and unfused arenas of `machine`, and asserts all three agree.
fn assert_runs_agree(program: &Program, machine: MachineConfig, ctx: &str) {
    let r = ReferenceMachine::new(program, machine)
        .run(&mut NullSink)
        .unwrap_or_else(|e| panic!("reference {ctx}: {e}"));
    for no_fuse in [false, true] {
        let a = Machine::new(program, MachineConfig { no_fuse, ..machine })
            .run(&mut NullSink)
            .unwrap_or_else(|e| panic!("no_fuse: {no_fuse}, {ctx}: {e}"));
        assert_machines_identical(&a, &r, &format!("no_fuse: {no_fuse} vs reference, {ctx}"));
    }
}

/// Code bytes between blocks that share an I-cache set in every geometry
/// tested here: a multiple of every way size (256 B to 16 KB).
const SET_STRIDE: u64 = 16 * 1024;

/// Fills block `b` with never-executed padding so that, after a block of
/// `used` bytes, the next block starts [`SET_STRIDE`] further on.
fn pad(f: &mut ProcBuilder<'_>, b: BlockId, used: u64) {
    let mut bb = f.block(b);
    for _ in 0..(SET_STRIDE - used) / 4 - 1 {
        bb.nop();
    }
    bb.ret();
}

/// A ring of `n >= 2` one-line blocks sharing one I-cache set, run ten
/// times round, left from its second block into a block in the same set,
/// and re-entered four times. Skipping a walk that would have refreshed
/// the set's LRU order changes which line that exit evicts, and so the
/// next round's misses.
fn set_ring(n: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.procedure("main");
    let e = f.entry_block();
    let mut ring = Vec::new();
    let mut pads = Vec::new();
    for _ in 0..=n {
        pads.push(f.new_block());
        ring.push(f.new_block());
    }
    let exit = ring.pop().expect("n + 1 slots");
    let done = f.new_block();
    let (i, j, c) = (f.new_reg(), f.new_reg(), f.new_reg());
    f.block(e).mov(i, 0i64).mov(j, 0i64).jump(ring[0]);
    pad(&mut f, pads[0], 12);
    for k in 0..n {
        let next = ring[(k + 1) % n];
        if k == 1 {
            f.block(ring[k])
                .add(i, i, 1i64)
                .cmp_lt(c, i, 10i64)
                .branch(c, next, exit);
            pad(&mut f, pads[k + 1], 12);
        } else {
            f.block(ring[k]).jump(next);
            pad(&mut f, pads[k + 1], 4);
        }
    }
    f.block(exit)
        .mov(i, 0i64)
        .add(j, j, 1i64)
        .cmp_lt(c, j, 4i64)
        .branch(c, ring[0], done);
    f.block(done).ret();
    let main = f.finish();
    pb.finish(main)
}

/// A self-loop block of 816 B, wider than both ways of a 512 B I-cache:
/// there its walk misses on every entry, and a memo recorded for it
/// would skip those misses.
fn wide_self_loop() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.procedure("main");
    let (e, w, x) = (f.entry_block(), f.new_block(), f.new_block());
    let (i, c) = (f.new_reg(), f.new_reg());
    f.block(e).mov(i, 0i64).jump(w);
    let mut bb = f.block(w);
    for _ in 0..200 {
        bb.nop();
    }
    bb.add(i, i, 1i64).cmp_lt(c, i, 20i64).branch(c, w, x);
    f.block(x).ret();
    let main = f.finish();
    pb.finish(main)
}

/// The reference interpreter walks every line of every block it enters,
/// so where the fused and unfused arenas skip a walk on the fetch memo
/// they must still agree with it exactly — `IcMiss`, `Cycles` and the
/// `%pic`s included — under I-cache shapes far from the default, over the
/// suite and over two programs built to expose a stale memo.
#[test]
fn stressed_icache_runs_are_identical_across_interpreters() {
    for w in pp::workloads::suite(0.01) {
        for config in [RunConfig::Base, RunConfig::CombinedHw { events: EVENTS }] {
            let program = instrumented(&w.program, config);
            for (shape, machine) in stressed_icaches() {
                let ctx = format!("{} under {config}, {shape} I-cache", w.name);
                assert_runs_agree(&program, machine, &ctx);
            }
        }
    }
    let shapes = [("default", MachineConfig::default())].into_iter();
    for (shape, machine) in shapes.chain(stressed_icaches()) {
        let ring = set_ring(machine.icache_ways.max(2));
        assert_runs_agree(&ring, machine, &format!("set ring, {shape} I-cache"));
        let wide = wide_self_loop();
        assert_runs_agree(&wide, machine, &format!("wide self-loop, {shape} I-cache"));
    }
}

/// A sample is due whenever the clock passes the next sample point,
/// and the fused arena checks for it between a fused op's halves too:
/// every interpreter takes each sample at the same micro-op, so the
/// sampled stacks and the counters the samples perturb agree exactly.
#[test]
fn sampled_runs_are_identical_across_interpreters() {
    const INTERVAL: u64 = 997;
    for w in pp::workloads::suite(0.01) {
        let mut runs = Vec::new();
        for no_fuse in [false, true] {
            let config = MachineConfig {
                no_fuse,
                ..MachineConfig::default()
            };
            let mut stacks = Vec::new();
            let r = Machine::new(&w.program, config)
                .run_sampled(&mut NullSink, INTERVAL, &mut |s| stacks.push(s.to_vec()))
                .unwrap_or_else(|e| panic!("{} (no_fuse: {no_fuse}): {e}", w.name));
            runs.push((r, stacks));
        }
        let mut stacks = Vec::new();
        let r = ReferenceMachine::new(&w.program, MachineConfig::default())
            .run_sampled(&mut NullSink, INTERVAL, &mut |s| stacks.push(s.to_vec()))
            .unwrap_or_else(|e| panic!("reference {}: {e}", w.name));
        for (run, name) in runs.iter().zip(["fused", "unfused"]) {
            let ctx = format!("{name} vs reference, {}", w.name);
            assert_machines_identical(&run.0, &r, &ctx);
            assert_eq!(run.1, stacks, "sampled stacks: {ctx}");
        }
    }
}

/// The observability layer inherits the determinism guarantee: every
/// metric an observed run records — the sink's hot-path counters and
/// everything `observe::record_outcome` derives afterwards — is a
/// function of simulated state only, so the registry snapshot is
/// byte-identical across the two interpreters, and across repeated
/// runs of the same one.
/// Drops the counters that describe the *host* interpreter's own fast
/// paths (superinstruction dispatch, the indirect-call inline cache).
/// They are engine-local by design — the tree-walking reference has no
/// dispatch loop to instrument — so cross-interpreter comparison strips
/// them; everything else must still match byte for byte.
fn strip_engine_local(snapshot: &str) -> String {
    snapshot
        .lines()
        .filter(|l| !l.starts_with("counter dispatch.") && !l.starts_with("counter call.ic_"))
        .flat_map(|l| [l, "\n"])
        .collect()
}

#[test]
fn metrics_snapshots_are_identical_across_interpreters() {
    let profiler = Profiler::default();
    let config = RunConfig::CombinedHw { events: EVENTS };
    for w in pp::workloads::suite(0.05) {
        let observed = |run: &dyn Fn(&mut pp::obs::Registry) -> pp::profiler::RunOutcome| {
            let mut reg = pp::obs::Registry::new();
            let outcome = run(&mut reg);
            pp::profiler::observe::record_outcome(&mut reg, &outcome);
            reg
        };
        let a = observed(&|reg| {
            profiler
                .run_observed(&w.program, config, reg)
                .expect("optimized")
        });
        let b = observed(&|reg| {
            profiler
                .run_reference_observed(&w.program, config, reg)
                .expect("reference")
        });
        let rerun = observed(&|reg| {
            profiler
                .run_observed(&w.program, config, reg)
                .expect("optimized rerun")
        });
        assert!(!a.is_empty(), "{}: observed run recorded nothing", w.name);
        assert_eq!(
            strip_engine_local(&a.snapshot()),
            strip_engine_local(&b.snapshot()),
            "interpreters: {}",
            w.name
        );
        // The engine-local counters are still deterministic: a rerun of
        // the same interpreter reproduces them (and everything else)
        // byte for byte, snapshot and JSON alike.
        assert_eq!(a.snapshot(), rerun.snapshot(), "rerun: {}", w.name);
        assert_eq!(a.to_json(), rerun.to_json(), "json rerun: {}", w.name);
        // And the fused fast path ran whenever fusion is on (`PP_NO_FUSE=1`
        // turns it off for the whole test binary).
        let fusing = Machine::new(&w.program, MachineConfig::default())
            .decoded()
            .num_fused_ops()
            > 0;
        assert_eq!(
            a.snapshot().contains("counter dispatch.fused_hit"),
            fusing,
            "{}: fused dispatches recorded iff fusion is on",
            w.name
        );
    }
}

/// Control flow itself is identical: with block tracing on, both
/// interpreters count every `(procedure, block)` execution the same.
#[test]
fn block_counts_are_identical_across_interpreters() {
    let config = MachineConfig {
        trace_blocks: true,
        ..MachineConfig::default()
    };
    for w in pp::workloads::suite(0.05) {
        let mut m = Machine::new(&w.program, config);
        m.run(&mut NullSink)
            .unwrap_or_else(|e| panic!("optimized {}: {e}", w.name));
        let mut r = ReferenceMachine::new(&w.program, config);
        r.run(&mut NullSink)
            .unwrap_or_else(|e| panic!("reference {}: {e}", w.name));
        // The reference records only executed blocks; the dense view
        // filters zero counts, so the maps line up key for key.
        assert_eq!(&m.block_counts(), r.block_counts(), "{}", w.name);
    }
}
