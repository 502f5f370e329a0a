//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation section, plus the studies of the extensions built
//! on it (planner, statistics maintenance, multi-way).
//!
//! ```text
//! cargo run -p rj_bench --release --bin experiments -- [experiment] [flags]
//!
//! experiments:
//!   example     running example (Fig. 1–6) across all algorithms
//!   fig7        Q1/Q2 time + bandwidth + dollar cost, EC2 profile (Fig. 7a–f)
//!   fig8        Q1/Q2 time + bandwidth + dollar cost, LC profile (Fig. 8a–f)
//!   fig9        index build times (Fig. 9)
//!   sizes       index disk-space table (§7.2)
//!   memory      index-build reducer memory footprints (§7.2)
//!   updates     online-updates overhead study (§7.2)
//!   scaling     EC2 cluster-size scaling note (§7.1)
//!   planner     cost-based planner: predicted vs measured cost per algorithm,
//!               planner agreement with the measured-cheapest choice
//!   updates-planner  interleaved refresh sets vs Auto planning: maintained
//!                    statistics against a fresh-stats oracle per round
//!   multiway    3-way rank joins: the default all-descend access vs
//!               the measured-cheapest assignment over a (shape, k)
//!               grid, plus the two-side-spec-equals-binary pin
//!   ablations   design-choice ablations: ISL batch size (§4.2.3), BFHM
//!               bucket count, single-hash vs classic Bloom false
//!               positives and Golomb vs raw blob size (§5.1)
//!   all         everything above
//!
//! flags:
//!   --sf X            scale factor for both profiles
//!   --sf-ec2 X        EC2-profile scale factor
//!   --sf-lab X        lab-profile scale factor
//!   --json-out DIR    also write each experiment's output as
//!                     DIR/BENCH_<experiment>.json (machine-readable)
//! ```

use std::env;

use rj_bench::{
    run_ablations, run_example_walkthrough, run_fig7, run_fig8, run_fig9, run_memory, run_multiway,
    run_planner, run_scaling, run_sizes, run_updates, run_updates_planner, Json,
    MultiwayBenchConfig, Table,
};

/// Every runnable experiment name (usage text and up-front validation).
const EXPERIMENTS: &[&str] = &[
    "example",
    "fig7",
    "fig8",
    "fig9",
    "sizes",
    "memory",
    "updates",
    "scaling",
    "planner",
    "updates-planner",
    "multiway",
    "ablations",
    "all",
];

struct Args {
    experiment: String,
    sf_ec2: f64,
    sf_lab: f64,
    json_out: Option<std::path::PathBuf>,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_owned(),
        sf_ec2: 0.002,
        sf_lab: 0.01,
        json_out: None,
    };
    let mut saw_experiment = false;
    let argv: Vec<String> = env::args().skip(1).collect();
    let mut i = 0;
    let parse_f64 = |argv: &[String], i: usize, flag: &str| -> f64 {
        argv.get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| die(&format!("{flag} needs a number")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--sf" => {
                i += 1;
                let v = parse_f64(&argv, i, "--sf");
                args.sf_ec2 = v;
                args.sf_lab = v;
            }
            "--sf-ec2" => {
                i += 1;
                args.sf_ec2 = parse_f64(&argv, i, "--sf-ec2");
            }
            "--sf-lab" => {
                i += 1;
                args.sf_lab = parse_f64(&argv, i, "--sf-lab");
            }
            "--json-out" => {
                i += 1;
                let dir = argv
                    .get(i)
                    .unwrap_or_else(|| die("--json-out needs a directory"));
                args.json_out = Some(std::path::PathBuf::from(dir));
            }
            other if !other.starts_with('-') => {
                if saw_experiment {
                    die(&format!("unexpected operand {other:?}"));
                }
                args.experiment = other.to_owned();
                saw_experiment = true;
            }
            other => die(&format!("unknown flag: {other}")),
        }
        i += 1;
    }
    args
}

/// Writes `content` to `DIR/BENCH_<name>.json` when `--json-out` is set.
fn emit_json(json_out: &Option<std::path::PathBuf>, name: &str, content: &str) {
    let Some(dir) = json_out else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        die(&format!("cannot create {}: {e}", dir.display()));
    }
    let path = dir.join(format!("BENCH_{name}.json"));
    if let Err(e) = std::fs::write(&path, content) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
    eprintln!("wrote {}", path.display());
}

/// Serializes a table list as one JSON document.
fn tables_json(name: &str, tables: &[Table]) -> String {
    Json::Obj(vec![
        ("experiment", name.into()),
        (
            "tables",
            Json::Arr(tables.iter().map(Table::to_json).collect()),
        ),
    ])
    .render()
}

fn main() {
    let args = parse_args();
    // Validate the subcommand up front: a typo must exit 2 with usage
    // before any experiment spends minutes running.
    if !EXPERIMENTS.contains(&args.experiment.as_str()) {
        die(&format!(
            "unknown experiment {:?}; run with one of: {}",
            args.experiment,
            EXPERIMENTS.join(" ")
        ));
    }
    let ran = |name: &str| args.experiment == name || args.experiment == "all";
    println!(
        "# Rank Join Queries in NoSQL Databases — experiment runs\n\
         # (simulated metrics; SF_ec2={}, SF_lab={})\n",
        args.sf_ec2, args.sf_lab
    );
    let show = |name: &str, tables: Vec<Table>| {
        emit_json(&args.json_out, name, &tables_json(name, &tables));
        for t in tables {
            println!("{}", t.render());
        }
    };
    if ran("example") {
        show("example", run_example_walkthrough());
    }
    if ran("fig7") {
        show("fig7", run_fig7(args.sf_ec2));
    }
    if ran("fig8") {
        show("fig8", run_fig8(args.sf_lab));
    }
    if ran("fig9") {
        show("fig9", run_fig9(args.sf_ec2, args.sf_lab));
    }
    if ran("sizes") {
        show("sizes", run_sizes(args.sf_lab));
    }
    if ran("memory") {
        show("memory", run_memory(args.sf_lab, &[100, 500]));
    }
    if ran("updates") {
        // The paper applies ≈750 mutations per measured query (§7.2).
        show("updates", run_updates(args.sf_lab, 750));
    }
    if ran("scaling") {
        // Larger scale factor so per-node data work (which is what shrinks
        // with more workers) is visible over the fixed job startup.
        show("scaling", run_scaling(args.sf_ec2 * 10.0));
    }
    if ran("planner") {
        let report = run_planner(args.sf_ec2, args.sf_lab);
        emit_json(&args.json_out, "planner", &report.to_json());
        for t in report.tables() {
            println!("{}", t.render());
        }
        println!(
            "# planner agreement: time {:.0}%, dollars {:.0}%\n",
            report.agreement_time * 100.0,
            report.agreement_dollars * 100.0
        );
    }
    if ran("updates-planner") {
        let report = run_updates_planner(args.sf_lab, 4);
        emit_json(&args.json_out, "updates_planner", &report.to_json());
        println!("{}", report.table().render());
        println!(
            "# updates-planner agreement: {:.0}% over {} mutations ({} full stats pass(es))\n",
            report.agreement * 100.0,
            report.mutations,
            report.collections
        );
    }
    if ran("multiway") {
        let report = run_multiway(&MultiwayBenchConfig::default());
        emit_json(&args.json_out, "multiway", &report.to_json());
        for t in report.tables() {
            println!("{}", t.render());
        }
        println!(
            "# multiway: auto within {:.2}x of measured-cheapest, two-side spec == binary: {}\n",
            report.auto_worst_ratio(),
            report.binary_identical()
        );
    }
    if ran("ablations") {
        show("ablations", run_ablations(args.sf_ec2));
    }
}
