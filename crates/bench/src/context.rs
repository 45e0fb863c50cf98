//! Shared experiment configuration, parsed from CLI flags.

use dim_cluster::{Backend, ExecMode};
use dim_graph::{DatasetProfile, Graph};

/// The experiments that run on the TCP backends (`--backend proc|join`):
/// the DiIMM scaling figures. Every other experiment is simulator-only,
/// and `repro` refuses it there. `proc` workers come from `DIM_WORKER_BIN`
/// or next to `repro` (no fallback); with `join` the rendezvous latency
/// lands in each row's phase breakdown under the `rendezvous` label.
pub const TCP_EXPERIMENTS: [&str; 5] = ["fig5", "fig6", "fig7", "fig8", "fig9"];

/// Configuration shared by all experiments.
#[derive(Clone, Debug)]
pub struct Context {
    /// Per-dataset node-count scale relative to the real datasets
    /// (Table III sizes). Order follows [`DatasetProfile::ALL`].
    pub scales: [f64; 4],
    /// Approximation error ε (paper: 0.01; reproduction default: 0.1 — see
    /// DESIGN.md §4 for why).
    pub epsilon: f64,
    /// Seed-set size k (paper default: 50).
    pub k: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Datasets to run (subset of [`DatasetProfile::ALL`]).
    pub datasets: Vec<DatasetProfile>,
    /// Machine counts for cluster experiments (Figs. 5, 8).
    pub cluster_machines: Vec<usize>,
    /// Core counts for multi-core experiments (Figs. 6, 7, 9, 10).
    pub core_counts: Vec<usize>,
    /// Directory for JSON result dumps.
    pub out_dir: String,
    /// Cluster backend (`--backend sequential|threads|proc|join`).
    pub backend: Backend,
}

impl Default for Context {
    fn default() -> Self {
        Context {
            // Defaults keep every dataset's RR generation tractable on a
            // small host while preserving each profile's density and skew:
            // Facebook runs at full size; the directed graphs are scaled to
            // 16K / 121K / 208K nodes. Sized so the single-machine baseline
            // costs seconds of compute, keeping the compute:communication
            // ratio in the paper's regime.
            scales: [1.0, 0.15, 0.025, 0.005],
            epsilon: 0.1,
            k: 50,
            seed: 42,
            datasets: DatasetProfile::ALL.to_vec(),
            cluster_machines: vec![1, 2, 4, 8, 16],
            core_counts: vec![1, 2, 4, 8, 16, 32, 64],
            out_dir: "results".to_string(),
            backend: Backend::Sim(ExecMode::Sequential),
        }
    }
}

impl Context {
    /// Parses CLI flags (everything after the experiment name). Returns an
    /// error message on unknown or malformed flags.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut ctx = Context::default();
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "--quick" => {
                    // Quarter scale, looser ε, shorter sweeps.
                    for s in &mut ctx.scales {
                        *s *= 0.25;
                    }
                    ctx.epsilon = 0.25;
                    ctx.cluster_machines = vec![1, 4, 16];
                    ctx.core_counts = vec![1, 4, 16, 64];
                }
                "--epsilon" => ctx.epsilon = parse_num(&value("--epsilon")?)?,
                "--k" => ctx.k = parse_num::<f64>(&value("--k")?)? as usize,
                "--seed" => ctx.seed = parse_num::<f64>(&value("--seed")?)? as u64,
                "--scale" => {
                    let f: f64 = parse_num(&value("--scale")?)?;
                    for s in &mut ctx.scales {
                        *s *= f;
                    }
                }
                "--out" => ctx.out_dir = value("--out")?,
                "--datasets" => {
                    let list = value("--datasets")?;
                    ctx.datasets = list
                        .split(',')
                        .map(|name| {
                            DatasetProfile::parse(name)
                                .ok_or_else(|| format!("unknown dataset {name:?}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--machines" => {
                    let list = value("--machines")?;
                    ctx.cluster_machines = parse_usize_list(&list)?;
                    ctx.core_counts = ctx.cluster_machines.clone();
                }
                "--backend" => ctx.backend = Backend::parse(&value("--backend")?)?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if ctx.datasets.is_empty() {
            return Err("no datasets selected".into());
        }
        Ok(ctx)
    }

    /// Refuses a TCP backend for any `experiment` outside
    /// [`TCP_EXPERIMENTS`] (`all` included): those run only on the
    /// simulator, and `repro` does not fall back to it silently.
    pub fn check_backend(&self, experiment: &str) -> Result<(), String> {
        let Backend::Tcp { spawn } = self.backend else {
            return Ok(());
        };
        if TCP_EXPERIMENTS.contains(&experiment) {
            return Ok(());
        }
        let backend = if spawn { "proc" } else { "join" };
        Err(format!(
            "experiment {experiment:?} does not run on --backend {backend} (only {} do)",
            TCP_EXPERIMENTS.join(", ")
        ))
    }

    /// The `SimCluster` execution mode for experiments that only run on
    /// the simulated backend ([`Context::check_backend`] keeps the TCP
    /// backends away from them).
    pub fn exec_mode(&self) -> ExecMode {
        match self.backend {
            Backend::Sim(mode) => mode,
            tcp => unreachable!("--backend {tcp:?} reached a simulator-only experiment"),
        }
    }

    /// The scale configured for `profile`.
    pub fn scale_of(&self, profile: DatasetProfile) -> f64 {
        let idx = DatasetProfile::ALL
            .iter()
            .position(|p| *p == profile)
            .expect("profile in ALL");
        self.scales[idx]
    }

    /// Generates the (scaled) graph for `profile` with this context's seed.
    pub fn graph(&self, profile: DatasetProfile) -> Graph {
        profile.generate(self.scale_of(profile), self.seed)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

fn parse_usize_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|x| x.trim().parse().map_err(|_| format!("bad count {x:?}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let ctx = Context::parse(&[]).unwrap();
        assert_eq!(ctx.k, 50);
        assert_eq!(ctx.datasets.len(), 4);
        assert_eq!(ctx.cluster_machines, vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn parses_flags() {
        let ctx = Context::parse(&args(&[
            "--epsilon", "0.1", "--k", "10", "--datasets", "facebook,tw", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(ctx.epsilon, 0.1);
        assert_eq!(ctx.k, 10);
        assert_eq!(ctx.seed, 7);
        assert_eq!(
            ctx.datasets,
            vec![DatasetProfile::Facebook, DatasetProfile::Twitter]
        );
    }

    #[test]
    fn quick_mode_shrinks() {
        let ctx = Context::parse(&args(&["--quick"])).unwrap();
        assert!(ctx.scales[0] < 1.0);
        assert_eq!(ctx.core_counts, vec![1, 4, 16, 64]);
    }

    #[test]
    fn machines_override() {
        let ctx = Context::parse(&args(&["--machines", "1,2,3"])).unwrap();
        assert_eq!(ctx.cluster_machines, vec![1, 2, 3]);
        assert_eq!(ctx.core_counts, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(Context::parse(&args(&["--nope"])).is_err());
        assert!(Context::parse(&args(&["--datasets", "mars"])).is_err());
        assert!(Context::parse(&args(&["--epsilon"])).is_err());
    }

    #[test]
    fn tcp_backends_refuse_simulator_only_experiments() {
        let sim = Context::parse(&[]).unwrap();
        assert_eq!(sim.check_backend("all"), Ok(()));
        for backend in ["proc", "join"] {
            let ctx = Context::parse(&args(&["--backend", backend])).unwrap();
            for name in TCP_EXPERIMENTS {
                assert_eq!(ctx.check_backend(name), Ok(()), "{name}");
                assert!(crate::experiments::EXPERIMENTS.iter().any(|(n, ..)| *n == name));
            }
            for name in ["table2", "fig10", "ablation-traffic", "ext-opim", "all"] {
                let err = ctx.check_backend(name).unwrap_err();
                assert!(err.contains(&format!("{name:?}")) && err.contains(backend), "{err}");
            }
        }
    }

    #[test]
    fn scale_of_matches_order() {
        let ctx = Context::default();
        assert_eq!(ctx.scale_of(DatasetProfile::Facebook), 1.0);
        assert_eq!(ctx.scale_of(DatasetProfile::Twitter), 0.005);
    }
}
