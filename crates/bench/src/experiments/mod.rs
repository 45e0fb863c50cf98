//! One module per paper table/figure. Each experiment prints a console
//! table mirroring the paper's presentation and appends JSON records under
//! the context's output directory.

pub mod ablations;
pub mod fig10;
pub mod im_scaling;
pub mod opim_ext;
pub mod table2;
pub mod table3;
pub mod table4;

use crate::context::Context;

/// An experiment entry: name, description, runner.
pub type Experiment = (&'static str, &'static str, fn(&Context));

/// Experiment registry: name → (description, runner).
pub const EXPERIMENTS: &[Experiment] = &[
    ("table2", "empirical approximation ratios of distributed max-coverage baselines", table2::run),
    ("table3", "dataset statistics (profiles vs the paper's real datasets)", table3::run),
    ("table4", "number and total size of RR sets under the IC model", table4::run),
    ("fig5", "DiIMM running time, IC model, cluster network (1 Gbps)", im_scaling::fig5),
    ("fig6", "DiIMM running time, IC model, multi-core server", im_scaling::fig6),
    ("fig7", "distributed SUBSIM running time, IC model, multi-core server", im_scaling::fig7),
    ("fig8", "DiIMM running time, LT model, cluster network (1 Gbps)", im_scaling::fig8),
    ("fig9", "DiIMM running time, LT model, multi-core server", im_scaling::fig9),
    ("fig10", "maximum coverage: NewGreeDi vs GreeDi vs sequential greedy", fig10::run),
    ("ablation-traffic", "pulled marginals vs full-vector reduce traffic", ablations::traffic),
    ("ablation-greedy", "lazy selector vs naive rescan", ablations::greedy),
    ("ablation-sampler", "SUBSIM count-first vs per-edge BFS work", ablations::sampler),
    ("ablation-incremental", "incremental vs full coverage reporting in DiIMM", ablations::incremental),
    ("ext-opim", "extension: OPIM-C adaptive stopping vs IMM sample counts", opim_ext::run),
];

/// Runs one experiment by name (or `all`). Refuses, before running
/// anything, an unknown name or a backend the experiment cannot run on
/// ([`Context::check_backend`]).
pub fn run(name: &str, ctx: &Context) -> Result<(), String> {
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(n, _, _)| name == "all" || *n == name)
        .collect();
    if selected.is_empty() {
        return Err(format!("unknown experiment {name:?}"));
    }
    ctx.check_backend(name)?;
    for (i, (n, desc, f)) in selected.into_iter().enumerate() {
        let gap = if i == 0 { "" } else { "\n" };
        println!("{gap}=== {n}: {desc} ===\n");
        f(ctx);
    }
    Ok(())
}
