//! Composable fault injection: the chaos layer of the cluster substrate.
//!
//! A [`FaultPlan`] describes, per link and per op round, what the network
//! does to a run: extra latency (fixed plus jittered), message loss (paid
//! as a deterministic retransmit delay), stalls, `partition_map`-style
//! partitions over round ranges, and permanent link kills. Every decision
//! is a pure function of `(chaos_seed, machine, round)` — the same
//! SplitMix64 discipline as [`crate::rng`] — so a plan replays the exact
//! same fault schedule on every backend and every run.
//!
//! The plan is *interpreted* by a [`FaultInjector`], which backends
//! consult once per machine per op round:
//!
//! * [`SimCluster`](crate::SimCluster) applies decisions in **virtual
//!   time** — injected delay is charged to the round's phase metrics, and
//!   a killed machine simply stops answering (its op is not executed).
//! * The TCP process backend applies the same decisions **for real**:
//!   stalls become socket-level sleeps, kills become mid-frame connection
//!   teardown (see [`ProcCluster::set_chaos`](crate::ProcCluster::set_chaos)).
//!
//! Either way the injector records an ordered [`FaultEvent`] log, so two
//! runs from the same chaos seed can be asserted identical event for
//! event — the determinism contract `dim chaos` and the chaos CI job
//! rely on.

use std::time::Duration;

use dim_graph::rng::splitmix64;

use crate::json::Json;

/// Parts-per-million denominator for the plan's probability knobs.
pub const PPM: u32 = 1_000_000;

/// Per-link fault behavior. All probabilities are in parts per million so
/// the plan stays integer-only (exact in JSON, no float comparison).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkFault {
    /// Machine whose master link this entry shapes.
    pub machine: u32,
    /// Fixed extra latency added to every round on this link (µs).
    pub extra_latency_us: u64,
    /// Uniform jitter in `[0, jitter_us]` added on top, drawn
    /// deterministically per round (µs).
    pub jitter_us: u64,
    /// Probability per round that the round's message is lost (ppm). A
    /// loss is paid as one deterministic retransmit delay.
    pub loss_prob_ppm: u32,
    /// Delay charged for each lost message (µs).
    pub loss_retry_us: u64,
    /// Probability per round that the link stalls (ppm).
    pub stall_prob_ppm: u32,
    /// Length of an injected stall (ms).
    pub stall_ms: u64,
    /// Kill the link permanently at this op round (0-based). `None`
    /// never kills.
    pub kill_at_round: Option<u64>,
}

/// A partition episode: during rounds `[from_round, to_round)` the named
/// machines are unreachable; each affected round pays `heal_us` of
/// reconnection delay (the schedule stays within timeouts, so partitions
/// slow rounds down without diverging results).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Partition {
    pub from_round: u64,
    pub to_round: u64,
    /// Extra delay per affected round while partitioned (µs).
    pub heal_us: u64,
    /// Machines cut off from the master during the episode.
    pub machines: Vec<u32>,
}

/// A complete, deterministic fault schedule for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed all probabilistic decisions derive from.
    pub chaos_seed: u64,
    pub link_faults: Vec<LinkFault>,
    pub partitions: Vec<Partition>,
}

/// What the injector decided for one `(machine, round)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkDecision {
    /// The round proceeds after `delay` of injected slowdown (possibly
    /// zero).
    Healthy { delay: Duration },
    /// The link is dead from this round on: the op must not be executed
    /// and the round must surface a typed link error for this machine.
    Killed,
}

/// One recorded injection, in decision order. Two injectors built from
/// the same plan produce identical event sequences — the determinism
/// test's observable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub round: u64,
    pub machine: u32,
    pub kind: FaultEventKind,
}

/// What was injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEventKind {
    /// Latency and/or jitter, total in µs.
    Delay { us: u64 },
    /// A lost message, paid as a retransmit delay in µs.
    Loss { retry_us: u64 },
    /// A stall of the given length in ms.
    Stall { ms: u64 },
    /// A partition episode delayed this round by `heal_us`.
    Partitioned { heal_us: u64 },
    /// The link died this round (reported once; later rounds are `Dead`).
    Kill,
    /// The link was already dead.
    Dead,
}

/// SplitMix64 finalizer over a mixed `(seed, machine, round, salt)` input
/// — same construction as [`crate::rng::stream_seed`], with a salt so the
/// jitter/loss/stall draws are independent streams.
fn chaos_mix(seed: u64, machine: u32, round: u64, salt: u64) -> u64 {
    splitmix64(
        seed ^ (u64::from(machine) + 1).wrapping_mul(0x9E3779B97F4A7C15)
            ^ round.wrapping_add(1).wrapping_mul(0xD1B54A32D192ED03)
            ^ salt.wrapping_mul(0x2545F4914F6CDD1D),
    )
}

/// Draws a ppm-scale coin: true with probability `prob_ppm` / 10⁶.
fn ppm_roll(seed: u64, machine: u32, round: u64, salt: u64, prob_ppm: u32) -> bool {
    prob_ppm > 0 && (chaos_mix(seed, machine, round, salt) % u64::from(PPM)) < u64::from(prob_ppm)
}

/// Interprets a [`FaultPlan`] round by round, recording every injection.
///
/// Backends call `FaultInjector::decide` once per machine per op round
/// (in machine order) and `FaultInjector::next_round` after the round —
/// the decision for a `(machine, round)` pair is stateless apart from the
/// once-only `Kill` event, so the same plan yields the same schedule
/// regardless of which backend interprets it.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    round: u64,
    dead: Vec<bool>,
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Builds an injector for a cluster of `machines` machines.
    pub fn new(plan: FaultPlan, machines: usize) -> Self {
        FaultInjector {
            plan,
            round: 0,
            dead: vec![false; machines],
            events: Vec::new(),
        }
    }

    /// The op round the next `FaultInjector::decide` applies to.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The ordered injection log so far.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Advances to the next op round.
    pub(crate) fn next_round(&mut self) {
        self.round += 1;
    }

    /// Decides what happens to `machine`'s link this round, recording the
    /// injected events.
    pub(crate) fn decide(&mut self, machine: usize) -> LinkDecision {
        let m = machine as u32;
        let round = self.round;
        if self.dead.get(machine).copied().unwrap_or(false) {
            self.push(round, m, FaultEventKind::Dead);
            return LinkDecision::Killed;
        }
        let seed = self.plan.chaos_seed;
        let mut delay_us = 0u64;
        let mut fault_of_machine = None;
        for f in &self.plan.link_faults {
            if f.machine == m {
                fault_of_machine = Some(f.clone());
                break;
            }
        }
        if let Some(f) = fault_of_machine {
            if f.kill_at_round.is_some_and(|at| round >= at) {
                self.dead[machine] = true;
                self.push(round, m, FaultEventKind::Kill);
                return LinkDecision::Killed;
            }
            let mut latency = f.extra_latency_us;
            if f.jitter_us > 0 {
                latency += chaos_mix(seed, m, round, 1) % (f.jitter_us + 1);
            }
            if latency > 0 {
                self.push(round, m, FaultEventKind::Delay { us: latency });
                delay_us += latency;
            }
            if ppm_roll(seed, m, round, 2, f.loss_prob_ppm) {
                self.push(round, m, FaultEventKind::Loss { retry_us: f.loss_retry_us });
                delay_us += f.loss_retry_us;
            }
            if ppm_roll(seed, m, round, 3, f.stall_prob_ppm) {
                self.push(round, m, FaultEventKind::Stall { ms: f.stall_ms });
                delay_us += f.stall_ms.saturating_mul(1_000);
            }
        }
        let partition_heals: Vec<u64> = self
            .plan
            .partitions
            .iter()
            .filter(|p| round >= p.from_round && round < p.to_round && p.machines.contains(&m))
            .map(|p| p.heal_us)
            .collect();
        for heal_us in partition_heals {
            self.push(round, m, FaultEventKind::Partitioned { heal_us });
            delay_us += heal_us;
        }
        LinkDecision::Healthy {
            delay: Duration::from_micros(delay_us),
        }
    }

    fn push(&mut self, round: u64, machine: u32, kind: FaultEventKind) {
        self.events.push(FaultEvent {
            round,
            machine,
            kind,
        });
    }
}

// ---------------------------------------------------------------------------
// JSON codec — the plan's one serialization, the `dim chaos --plan
// PLAN.json` surface. Hand-rolled like the rest of the workspace's JSON
// touchpoints (the binaries carry no serde); strict enough to reject
// anything structurally off.

impl FaultPlan {
    /// Parses a plan from the `dim chaos --plan` JSON shape. Unknown keys
    /// are rejected nowhere (forward compatible); missing keys default to
    /// zero / empty / `null`.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let root = Json::parse(text)?;
        if !matches!(root, Json::Obj(_)) {
            return Err("plan must be a JSON object".into());
        }
        let chaos_seed = root.u64_or("chaos_seed", 0)?;
        let mut link_faults = Vec::new();
        if let Some(Json::Arr(items)) = root.get("link_faults") {
            for item in items {
                let kill_at_round = match item.get("kill_at_round") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_u64("kill_at_round")?),
                };
                let fault = LinkFault {
                    machine: item.u32_or("machine", 0)?,
                    extra_latency_us: item.u64_or("extra_latency_us", 0)?,
                    jitter_us: item.u64_or("jitter_us", 0)?,
                    loss_prob_ppm: item.u32_or("loss_prob_ppm", 0)?,
                    loss_retry_us: item.u64_or("loss_retry_us", 0)?,
                    stall_prob_ppm: item.u32_or("stall_prob_ppm", 0)?,
                    stall_ms: item.u64_or("stall_ms", 0)?,
                    kill_at_round,
                };
                if fault.loss_prob_ppm > PPM || fault.stall_prob_ppm > PPM {
                    return Err("probabilities are parts-per-million (≤ 1000000)".into());
                }
                link_faults.push(fault);
            }
        }
        let mut partitions = Vec::new();
        if let Some(Json::Arr(items)) = root.get("partitions") {
            for item in items {
                let machines = match item.get("machines") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(Json::Arr(ms)) => ms
                        .iter()
                        .map(|m| {
                            m.as_u64("machines[]").and_then(|v| {
                                u32::try_from(v)
                                    .map_err(|_| format!("machine id {v} does not fit in u32"))
                            })
                        })
                        .collect::<Result<_, _>>()?,
                    Some(other) => {
                        return Err(format!("machines: expected an array, got {other:?}"))
                    }
                };
                partitions.push(Partition {
                    from_round: item.u64_or("from_round", 0)?,
                    to_round: item.u64_or("to_round", 0)?,
                    heal_us: item.u64_or("heal_us", 0)?,
                    machines,
                });
            }
        }
        Ok(FaultPlan {
            chaos_seed,
            link_faults,
            partitions,
        })
    }

    /// Serializes the plan as `dim chaos --plan` JSON (one object, stable
    /// field order; `from_json ∘ to_json = id` for every `u64` — values
    /// from 2⁵³ up are written as decimal strings, see `Json::as_u64`).
    pub fn to_json(&self) -> String {
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(fields.into_iter().map(|(key, value)| (key.to_string(), value)).collect())
        };
        let (small, exact) = (|v: u32| Json::Num(f64::from(v)), Json::exact_u64);
        let link_faults = self.link_faults.iter().map(|f| {
            obj(vec![
                ("machine", small(f.machine)),
                ("extra_latency_us", exact(f.extra_latency_us)),
                ("jitter_us", exact(f.jitter_us)),
                ("loss_prob_ppm", small(f.loss_prob_ppm)),
                ("loss_retry_us", exact(f.loss_retry_us)),
                ("stall_prob_ppm", small(f.stall_prob_ppm)),
                ("stall_ms", exact(f.stall_ms)),
                ("kill_at_round", f.kill_at_round.map_or(Json::Null, exact)),
            ])
        });
        let partitions = self.partitions.iter().map(|p| {
            obj(vec![
                ("from_round", exact(p.from_round)),
                ("to_round", exact(p.to_round)),
                ("heal_us", exact(p.heal_us)),
                ("machines", Json::Arr(p.machines.iter().map(|&m| small(m)).collect())),
            ])
        });
        obj(vec![
            ("chaos_seed", exact(self.chaos_seed)),
            ("link_faults", Json::Arr(link_faults.collect())),
            ("partitions", Json::Arr(partitions.collect())),
        ])
        .to_string()
    }

    /// A plan that kills `machine`'s link at op round `round` and does
    /// nothing else — the single-machine-loss schedule the equivalence
    /// tests replay.
    pub fn kill_machine(machine: u32, round: u64) -> FaultPlan {
        FaultPlan {
            chaos_seed: 0,
            link_faults: vec![LinkFault {
                machine,
                kill_at_round: Some(round),
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            chaos_seed: 0xC0FFEE,
            link_faults: vec![
                LinkFault {
                    machine: 0,
                    extra_latency_us: 150,
                    jitter_us: 40,
                    loss_prob_ppm: 250_000,
                    loss_retry_us: 900,
                    stall_prob_ppm: 100_000,
                    stall_ms: 3,
                    kill_at_round: None,
                },
                LinkFault {
                    machine: 2,
                    kill_at_round: Some(4),
                    ..LinkFault::default()
                },
            ],
            partitions: vec![Partition {
                from_round: 1,
                to_round: 3,
                heal_us: 500,
                machines: vec![1, 2],
            }],
        }
    }

    #[test]
    fn json_roundtrips_and_defaults() {
        let plan = sample_plan();
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
        // Minimal plans parse with defaults.
        let min = FaultPlan::from_json(r#"{"chaos_seed": 9}"#).unwrap();
        assert_eq!(min.chaos_seed, 9);
        assert!(min.link_faults.is_empty() && min.partitions.is_empty());
        let kill = FaultPlan::from_json(
            r#"{"link_faults": [{"machine": 1, "kill_at_round": 3}]}"#,
        )
        .unwrap();
        assert_eq!(kill.link_faults[0].kill_at_round, Some(3));
        assert_eq!(kill.link_faults[0].loss_prob_ppm, 0);
    }

    #[test]
    fn json_keeps_every_u64_exact_or_refuses_it() {
        // f64-parsed literals used to turn the first seed into …608128.
        for big in [16294208416658607535, u64::MAX, 1 << 53] {
            let mut plan = FaultPlan::kill_machine(1, big);
            plan.chaos_seed = big;
            assert_eq!(FaultPlan::from_json(&plan.to_json()), Ok(plan));
        }
        // 2⁵³ + 1 as a bare number has already been rounded by the time it
        // is a `Json::Num`: refused, naming the key, never a neighbour.
        let err = FaultPlan::from_json(r#"{"chaos_seed": 9007199254740993}"#).unwrap_err();
        assert!(err.starts_with("chaos_seed: "), "{err}");
        let quoted = FaultPlan::from_json(r#"{"chaos_seed": "9007199254740993"}"#).unwrap();
        assert_eq!(quoted.chaos_seed, (1 << 53) + 1);
        assert!(FaultPlan::from_json(r#"{"chaos_seed": "18446744073709551616"}"#).is_err());
        assert!(FaultPlan::from_json(r#"{"chaos_seed": "-1"}"#).is_err());
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(FaultPlan::from_json("").is_err());
        assert!(FaultPlan::from_json("[]").is_err());
        assert!(FaultPlan::from_json("{").is_err());
        assert!(FaultPlan::from_json(r#"{"chaos_seed": -1}"#).is_err());
        assert!(FaultPlan::from_json(r#"{"chaos_seed": 1} trailing"#).is_err());
        assert!(
            FaultPlan::from_json(r#"{"link_faults": [{"loss_prob_ppm": 2000000}]}"#).is_err(),
            "probability over 1e6 ppm"
        );
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let plan = sample_plan();
        let run = |plan: &FaultPlan| {
            let mut inj = FaultInjector::new(plan.clone(), 4);
            let mut decisions = Vec::new();
            for _ in 0..8 {
                for m in 0..4 {
                    decisions.push(inj.decide(m));
                }
                inj.next_round();
            }
            (decisions, inj.events().to_vec())
        };
        let (d1, e1) = run(&plan);
        let (d2, e2) = run(&plan);
        assert_eq!(d1, d2);
        assert_eq!(e1, e2);
        assert!(!e1.is_empty());
        // A different chaos seed perturbs the probabilistic schedule.
        let mut other = plan.clone();
        other.chaos_seed ^= 1;
        let (_, e3) = run(&other);
        assert_ne!(e1, e3);
    }

    #[test]
    fn kill_is_permanent_and_reported_once() {
        let mut inj = FaultInjector::new(FaultPlan::kill_machine(1, 2), 3);
        for round in 0..5u64 {
            for m in 0..3 {
                let d = inj.decide(m);
                if m == 1 && round >= 2 {
                    assert_eq!(d, LinkDecision::Killed, "round {round}");
                } else {
                    assert!(matches!(d, LinkDecision::Healthy { .. }), "round {round} m {m}");
                }
            }
            inj.next_round();
        }
        let kills: Vec<_> = inj
            .events()
            .iter()
            .filter(|e| e.kind == FaultEventKind::Kill)
            .collect();
        assert_eq!(kills.len(), 1);
        assert_eq!((kills[0].round, kills[0].machine), (2, 1));
        assert_eq!(inj.dead, vec![false, true, false]);
    }

    #[test]
    fn partition_delays_only_in_range() {
        let plan = FaultPlan {
            chaos_seed: 1,
            link_faults: Vec::new(),
            partitions: vec![Partition {
                from_round: 1,
                to_round: 2,
                heal_us: 700,
                machines: vec![0],
            }],
        };
        let mut inj = FaultInjector::new(plan, 2);
        for round in 0..3u64 {
            let d0 = inj.decide(0);
            let d1 = inj.decide(1);
            let expected = if round == 1 {
                Duration::from_micros(700)
            } else {
                Duration::ZERO
            };
            assert_eq!(d0, LinkDecision::Healthy { delay: expected }, "round {round}");
            assert_eq!(d1, LinkDecision::Healthy { delay: Duration::ZERO });
            inj.next_round();
        }
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let plan = FaultPlan {
            chaos_seed: 77,
            link_faults: vec![LinkFault {
                machine: 0,
                loss_prob_ppm: PPM / 4,
                loss_retry_us: 10,
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        };
        let mut inj = FaultInjector::new(plan, 1);
        for _ in 0..4000 {
            inj.decide(0);
            inj.next_round();
        }
        let losses = inj
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultEventKind::Loss { .. }))
            .count();
        let rate = losses as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "loss rate {rate}");
    }
}
