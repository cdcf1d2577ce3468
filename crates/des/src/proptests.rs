//! Randomized property tests of the engine's ordering contract and of
//! the cross-backend halt point.
//!
//! Cases come from the in-tree seeded [`Rng`], so every failure names
//! the case seed that reproduces it.

use std::any::Any;

use crate::{
    Component, ComponentId, Context, Engine, EngineOptions, Rng, RunOutcome, Simulator, Time,
    TraceSpec,
};

/// Random cases per property.
const CASES: u64 = 64;

/// Runs `check` once per case with that case's generator and a label
/// naming the seed.
fn for_each_case(base_seed: u64, check: impl Fn(&str, &mut Rng)) {
    for case in 0..CASES {
        let seed = base_seed ^ case;
        check(
            &format!("case {case} (seed {seed:#x})"),
            &mut Rng::new(seed),
        );
    }
}

/// Records every delivery it sees, in execution order.
struct Recorder {
    seen: Vec<(Time, u64)>,
}

impl Component<u64> for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn handle(&mut self, ctx: &mut Context<'_, u64>, event: u64) {
        self.seen.push((ctx.now(), event));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A component that fans out a chain of future events on first contact.
struct Spawner {
    targets: Vec<ComponentId>,
    gaps: Vec<u64>,
}

impl Component<u64> for Spawner {
    fn name(&self) -> &str {
        "spawner"
    }
    fn handle(&mut self, ctx: &mut Context<'_, u64>, event: u64) {
        if event == 0 {
            for (i, (&t, &gap)) in self.targets.iter().zip(&self.gaps).enumerate() {
                ctx.schedule(t, ctx.now().plus_ticks(gap), 1000 + i as u64);
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Deliveries are observed in non-decreasing (tick, epsilon) order and
/// nothing is lost, regardless of the schedule: 1..200 events at ticks
/// 0..1000, epsilons 0..4.
#[test]
fn events_execute_in_time_order() {
    for_each_case(0x7153, |at, rng| {
        let n = rng.gen_range(1..200usize);
        let times: Vec<(u64, u8)> = (0..n)
            .map(|_| (rng.gen_range(0..1000u64), rng.gen_range(0..4u8)))
            .collect();
        let mut sim: Simulator<u64> = Simulator::new(1);
        let rec = sim.add_component(Box::new(Recorder { seen: Vec::new() }));
        for (i, &(tick, eps)) in times.iter().enumerate() {
            sim.schedule(rec, Time::new(tick, eps), i as u64);
        }
        let stats = sim.run();
        assert!(stats.outcome.is_ok(), "{at}: {:?}", stats.outcome);
        assert_eq!(stats.events_executed, n as u64, "{at}");
        let seen = &sim.component_as::<Recorder>(rec).expect("recorder").seen;
        assert_eq!(seen.len(), n, "{at}");
        assert!(
            seen.windows(2).all(|w| w[0].0 <= w[1].0),
            "{at}: out of order"
        );
        // Events with identical times retain FIFO (insertion) order.
        for w in seen.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "{at}: FIFO violated at {:?}", w[0].0);
            }
        }
    });
}

/// Dynamically scheduled events (1..20 at gaps 1..50) interleave
/// correctly with 0..20 static ones at ticks 0..100.
#[test]
fn spawned_events_respect_order() {
    for_each_case(0x5BA7, |at, rng| {
        let gaps: Vec<u64> = (0..rng.gen_range(1..20usize))
            .map(|_| rng.gen_range(1..50u64))
            .collect();
        let static_times: Vec<u64> = (0..rng.gen_range(0..20usize))
            .map(|_| rng.gen_range(0..100u64))
            .collect();
        let mut sim: Simulator<u64> = Simulator::new(2);
        let rec = sim.add_component(Box::new(Recorder { seen: Vec::new() }));
        let spawner = sim.add_component(Box::new(Spawner {
            targets: vec![rec; gaps.len()],
            gaps: gaps.clone(),
        }));
        sim.schedule(spawner, Time::at(10), 0);
        for &t in &static_times {
            sim.schedule(rec, Time::at(t), 1);
        }
        let stats = sim.run();
        assert!(stats.outcome.is_ok(), "{at}: {:?}", stats.outcome);
        let seen = &sim.component_as::<Recorder>(rec).expect("recorder").seen;
        assert_eq!(seen.len(), gaps.len() + static_times.len(), "{at}");
        assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "{at}");
    });
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Ping(u32),
    Stop,
    Fail,
}

/// A ring relay: forwards a token to the next component one tick later,
/// drawing one random value and tracing each hop.
struct Relay {
    next: ComponentId,
    hops_left: u32,
    seen: Vec<u32>,
    draws: Vec<u64>,
}

impl Component<Ev> for Relay {
    fn name(&self) -> &str {
        "relay"
    }
    fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        match event {
            Ev::Ping(n) => {
                self.seen.push(n);
                self.draws.push(ctx.rng().gen_u64());
                ctx.trace(0, ctx.self_id().index() as u32, u64::from(n), 0);
                if self.hops_left > 0 {
                    self.hops_left -= 1;
                    ctx.schedule(self.next, ctx.now().plus_ticks(1), Ev::Ping(n + 1));
                }
            }
            Ev::Stop => ctx.stop(),
            Ev::Fail => ctx.fail(format!("relay {} failed", ctx.self_id().index())),
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One random relay-ring case: the ring, its token schedule, and a
/// component-raised halt followed in its generation by more events.
struct HaltCase {
    seed: u64,
    size: usize,
    hops: u32,
    /// `(component, tick)` token injections.
    tokens: Vec<(usize, u64)>,
    halt: Ev,
    halt_at: (usize, u64),
    /// Components pinged externally right after the halt, at its time:
    /// their larger stamps put them after the halt in its generation.
    after: Vec<usize>,
}

fn random_halt_case(rng: &mut Rng) -> HaltCase {
    let size = rng.gen_range(2..12usize);
    HaltCase {
        seed: rng.gen_u64(),
        size,
        hops: rng.gen_range(1..40u32),
        tokens: (0..rng.gen_range(1..6usize))
            .map(|_| (rng.gen_range(0..size), rng.gen_range(0..8u64)))
            .collect(),
        halt: if rng.gen_bool(0.5) {
            Ev::Stop
        } else {
            Ev::Fail
        },
        halt_at: (rng.gen_range(0..size), rng.gen_range(0..30u64)),
        after: (0..rng.gen_range(1..4usize))
            .map(|_| rng.gen_range(0..size))
            .collect(),
    }
}

fn build_halt_case(case: &HaltCase) -> Simulator<Ev> {
    let options = EngineOptions {
        trace: Some((TraceSpec::default(), 1 << 16)),
        ..EngineOptions::default()
    };
    let mut sim = Simulator::with_options(case.seed, options);
    let ids: Vec<ComponentId> = (0..case.size)
        .map(|i| {
            sim.add_component(Box::new(Relay {
                next: ComponentId::from_index((i + 1) % case.size),
                hops_left: case.hops,
                seen: Vec::new(),
                draws: Vec::new(),
            }))
        })
        .collect();
    for &(c, tick) in &case.tokens {
        sim.schedule(ids[c], Time::at(tick), Ev::Ping(0));
    }
    let (c, tick) = case.halt_at;
    sim.schedule(ids[c], Time::at(tick), case.halt);
    for (i, &c) in case.after.iter().enumerate() {
        sim.schedule(ids[c], Time::at(tick), Ev::Ping(1000 + i as u32));
    }
    sim
}

/// Everything a run must agree on across backends.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    events: u64,
    end: Time,
    state: Vec<(Vec<u32>, Vec<u64>)>,
    trace: Vec<crate::TraceEvent>,
}

fn observe(engine: &mut dyn Engine<Ev>) -> Vec<Observed> {
    let mut runs = Vec::new();
    // A stopped run resumes: observe every segment up to the final halt.
    loop {
        let stats = engine.run();
        let state = (0..engine.num_components())
            .map(|i| {
                let r = engine
                    .component_as::<Relay>(ComponentId::from_index(i))
                    .expect("relay");
                (r.seen.clone(), r.draws.clone())
            })
            .collect();
        let stopped = stats.outcome == RunOutcome::Stopped;
        runs.push(Observed {
            outcome: stats.outcome,
            events: stats.events_executed,
            end: engine.now(),
            state,
            trace: engine.trace_records(),
        });
        if !stopped {
            return runs;
        }
    }
}

/// A stop or failure raised mid-generation halts every backend at the
/// same point — the end of that generation — so the sequential engine
/// and 2, 3 and 4 randomly mapped shards agree on the outcome, events
/// executed, end time, component state, and trace.
#[test]
fn mid_generation_halt_agrees_across_shard_counts() {
    for_each_case(0x4A17, |at, rng| {
        let case = random_halt_case(rng);
        let mut seq = build_halt_case(&case);
        let expected = observe(&mut seq);
        assert!(
            !matches!(expected[0].outcome, RunOutcome::Drained),
            "{at}: the halt never took effect"
        );
        // The events queued behind the halt in its generation ran.
        let (_, halt_tick) = case.halt_at;
        for (i, &c) in case.after.iter().enumerate() {
            assert!(
                expected[0].state[c].0.contains(&(1000 + i as u32)),
                "{at}: event after the halt at tick {halt_tick} did not run"
            );
        }
        for shards in [2u32, 3, 4] {
            let shard_of: Vec<u32> = (0..case.size).map(|_| rng.gen_range(0..shards)).collect();
            let mut sharded = build_halt_case(&case).into_sharded(shards as usize, shard_of);
            assert_eq!(
                observe(&mut sharded),
                expected,
                "{at}: {shards} shards diverged from sequential"
            );
        }
    });
}
