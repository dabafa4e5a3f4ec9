//! Ablations of the design choices called out in DESIGN.md.
//!
//! 1. **Page placement** — first-touch vs round-robin for shared data (the
//!    paper: "our experiments show that this allocation policy [first
//!    touch] achieves the best performance results for both the baseline
//!    and the PCLR system").
//! 2. **Combine-unit throughput** — the pipelined 1/3-clock FP adder vs a
//!    4x slower unit (is background combining bandwidth-critical?).
//! 3. **Programmable-controller occupancy** — Flex handler cost sweep
//!    (how programmable can the controller be before PCLR stops paying?).
//! 4. **Decision-model sensitivity** — perturb each calibration constant
//!    ±50% and count how many Figure 3 recommendations flip.
//! 5. **Contention (CH/CHD tail)** — sweep a Zipf exponent over the
//!    reference distribution and watch the measured scheme ranking: the
//!    taxonomy's high-contention regime (HCHR) is where privatizing
//!    schemes pull away from anything that synchronizes on hot elements.
//!
//! Usage: `ablation [--scale=0.25] [--seed=7] [--procs=16]`

use smartapps_bench::pclr_experiment::{params_for, scaled_pattern};
use smartapps_bench::report::Table;
use smartapps_reductions::{DecisionModel, Inspector, ModelInput, ModelParams};
use smartapps_sim::MachineConfig;
use smartapps_workloads::tracegen::{traces_for, SimScheme};
use smartapps_workloads::{fig3_rows, table2_rows};

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::args()
        .find_map(|a| {
            a.strip_prefix(&format!("--{name}="))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(default)
}

fn run_with(
    row: &smartapps_workloads::Table2Row,
    cfg: MachineConfig,
    scheme: SimScheme,
    pat: &std::sync::Arc<smartapps_workloads::AccessPattern>,
    placement: smartapps_sim::directory::PlacementPolicy,
) -> u64 {
    let nprocs = cfg.nodes;
    let traces = traces_for(scheme, pat, nprocs, params_for(row));
    let mut m = smartapps_sim::Machine::with_placement(cfg, traces, placement);
    m.run().total_cycles
}

fn main() {
    let scale: f64 = arg("scale", 0.25);
    let seed: u64 = arg("seed", 7);
    let procs: usize = arg("procs", 16);
    let rows = table2_rows();
    let equake = rows.iter().find(|r| r.app == "Equake").unwrap();
    let pat = scaled_pattern(equake, scale, seed);

    println!("Ablation 1: page placement (Equake, {procs}p, scale {scale})\n");
    {
        use smartapps_sim::directory::PlacementPolicy::{FirstTouch, RoundRobin};
        let mut t = Table::new(vec![
            "system",
            "first-touch cycles",
            "round-robin cycles",
            "penalty",
        ]);
        for (name, scheme) in [("Sw", SimScheme::Sw), ("Hw (PCLR)", SimScheme::Pclr)] {
            let ft = run_with(
                equake,
                MachineConfig::table1(procs),
                scheme,
                &pat,
                FirstTouch,
            );
            let rr = run_with(
                equake,
                MachineConfig::table1(procs),
                scheme,
                &pat,
                RoundRobin,
            );
            t.row(vec![
                name.to_string(),
                ft.to_string(),
                rr.to_string(),
                format!("{:+.1}%", 100.0 * (rr as f64 / ft as f64 - 1.0)),
            ]);
        }
        println!("{}", t.render());
    }

    println!("Ablation 2: combine-unit initiation interval (Equake Hw, {procs}p)\n");
    {
        let mut t = Table::new(vec!["II (cycles/elem)", "total cycles", "vs II=3"]);
        let mut base = 0u64;
        for ii in [3u64, 6, 12, 24] {
            let mut cfg = MachineConfig::table1(procs);
            cfg.combine_init_interval = ii;
            let c = run_with(
                equake,
                cfg,
                SimScheme::Pclr,
                &pat,
                smartapps_sim::directory::PlacementPolicy::FirstTouch,
            );
            if ii == 3 {
                base = c;
            }
            t.row(vec![
                ii.to_string(),
                c.to_string(),
                format!("{:+.1}%", 100.0 * (c as f64 / base as f64 - 1.0)),
            ]);
        }
        println!("{}", t.render());
    }

    println!("Ablation 3: programmable-controller occupancy factor (Equake, {procs}p)\n");
    {
        let mut t = Table::new(vec![
            "flex occupancy factor",
            "total cycles",
            "vs hardwired",
        ]);
        let hw = run_with(
            equake,
            MachineConfig::table1(procs),
            SimScheme::Pclr,
            &pat,
            smartapps_sim::directory::PlacementPolicy::FirstTouch,
        );
        t.row(vec![
            "1 (hardwired)".to_string(),
            hw.to_string(),
            "+0.0%".to_string(),
        ]);
        for f in [2u64, 4, 8, 16] {
            let mut cfg = MachineConfig::flex(procs);
            cfg.flex_occupancy_factor = f;
            cfg.flex_combine_init_interval = 3 * f.min(8);
            let c = run_with(
                equake,
                cfg,
                SimScheme::Pclr,
                &pat,
                smartapps_sim::directory::PlacementPolicy::FirstTouch,
            );
            t.row(vec![
                f.to_string(),
                c.to_string(),
                format!("{:+.1}%", 100.0 * (c as f64 / hw as f64 - 1.0)),
            ]);
        }
        println!("{}", t.render());
    }

    println!("Ablation 4: decision-model constant sensitivity (Figure 3 rows)\n");
    {
        let rows3 = fig3_rows();
        let baseline: Vec<_> = {
            let model = DecisionModel::default();
            rows3
                .iter()
                .map(|row| {
                    let pat = row.pattern(seed);
                    let insp = Inspector::analyze(&pat, 8);
                    model
                        .decide(&ModelInput::from_inspection(&insp, row.lw_feasible))
                        .best()
                })
                .collect()
        };
        let mut t = Table::new(vec!["constant", "x0.5 flips", "x2.0 flips"]);
        type Knob = (&'static str, fn(&mut ModelParams, f64));
        let knobs: Vec<Knob> = vec![
            ("rep_merge_elem", |p, f| p.rep_merge_elem *= f),
            ("ll_link_overhead", |p, f| p.ll_link_overhead *= f),
            ("ll_merge_line", |p, f| p.ll_merge_line *= f),
            ("sel_indirect", |p, f| p.sel_indirect *= f),
            ("hash_per_ref", |p, f| p.hash_per_ref *= f),
            ("inspector_per_ref", |p, f| p.inspector_per_ref *= f),
        ];
        for (name, apply) in knobs {
            let flips = |factor: f64| -> usize {
                let mut params = ModelParams::default();
                apply(&mut params, factor);
                let model = DecisionModel::new(params);
                rows3
                    .iter()
                    .zip(baseline.iter())
                    .filter(|(row, base)| {
                        let pat = row.pattern(seed);
                        let insp = Inspector::analyze(&pat, 8);
                        let got = model
                            .decide(&ModelInput::from_inspection(&insp, row.lw_feasible))
                            .best();
                        got != **base
                    })
                    .count()
            };
            t.row(vec![
                name.to_string(),
                flips(0.5).to_string(),
                flips(2.0).to_string(),
            ]);
        }
        println!("{}", t.render());
        println!("(flips out of 16 rows; small counts = robust calibration)");
    }

    println!("\nAblation 5: contention sweep (host timing, 4 threads)\n");
    {
        use smartapps_reductions::rank_schemes;
        use smartapps_workloads::{contribution, Distribution, PatternSpec};
        let mut t = Table::new(vec![
            "distribution",
            "max refs/elem",
            "model rec",
            "measured ranking",
        ]);
        let dists = [
            ("uniform", Distribution::Uniform),
            ("zipf s=0.8", Distribution::Zipf { s: 0.8 }),
            ("zipf s=1.2", Distribution::Zipf { s: 1.2 }),
            ("zipf s=1.6", Distribution::Zipf { s: 1.6 }),
        ];
        for (name, dist) in dists {
            let pat = PatternSpec {
                num_elements: 65_536,
                iterations: 400_000,
                refs_per_iter: 2,
                coverage: 1.0,
                dist,
                seed,
            }
            .generate();
            let insp = Inspector::analyze(&pat, 4);
            let max_refs = insp.chars.max_refs_per_element;
            let rec = DecisionModel::default()
                .decide(&ModelInput::from_inspection(&insp, false))
                .best();
            let (ranking, seq_t) = rank_schemes(&pat, &|_i, r| contribution(r), 4, false, 3);
            let ranking_str = ranking
                .iter()
                .map(|x| {
                    format!(
                        "{}({:.2})",
                        x.scheme.abbrev(),
                        seq_t.as_secs_f64() / x.elapsed.as_secs_f64()
                    )
                })
                .collect::<Vec<_>>()
                .join(" > ");
            t.row(vec![
                name.to_string(),
                max_refs.to_string(),
                rec.abbrev().to_string(),
                ranking_str,
            ]);
        }
        println!("{}", t.render());
        println!(
            "(no merge takes a lock, so hot elements serialize nothing: skew only\n\
             changes how many elements `sel` privatizes and `ll`/`hash` merge)"
        );
    }
}
