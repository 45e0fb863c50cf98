//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment|all> [flags]
//!
//! experiments:
//!   table2 table3 table4 fig5 fig6 fig7 fig8 fig9 fig10
//!   ablation-traffic ablation-greedy ablation-sampler ablation-incremental
//!   ext-opim
//!
//! flags:
//!   --quick              quarter scale, looser ε, shorter sweeps
//!   --epsilon <ε>        approximation error (default 0.2)
//!   --k <k>              seed-set size (default 50)
//!   --seed <s>           master RNG seed (default 42)
//!   --scale <f>          multiply every dataset scale by f
//!   --datasets <a,b,..>  facebook, googleplus, livejournal, twitter
//!   --machines <a,b,..>  machine/core counts to sweep
//!   --backend <b>        sequential | threads | proc | join (the TCP
//!                        backends run fig5-fig9 only, reporting measured
//!                        next to modeled comm time; any other experiment
//!                        is refused with exit 2)
//!   --out <dir>          JSON output directory (default results/)
//! ```

use dim_bench::{experiments, Context};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        usage();
        std::process::exit(2);
    };
    if name == "--help" || name == "-h" || name == "help" {
        usage();
        return;
    }
    if let Err(msg) = Context::parse(rest).and_then(|ctx| experiments::run(name, &ctx)) {
        eprintln!("error: {msg}\n");
        usage();
        std::process::exit(2);
    }
}

fn usage() {
    eprintln!("usage: repro <experiment|all> [flags]\n\nexperiments:");
    for (name, desc, _) in experiments::EXPERIMENTS {
        eprintln!("  {name:<18} {desc}");
    }
    eprintln!(
        "\nflags:\n  --quick | --epsilon <e> | --k <k> | --seed <s> | --scale <f>\n  --datasets <a,b,..> | --machines <a,b,..> | --backend <b> | --out <dir>"
    );
}
