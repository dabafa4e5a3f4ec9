//! The full SmartApp feedback loop end to end, starting from "compiler"
//! IR: recognize the reduction, package multi-version code, execute with
//! run-time inputs, and watch the ToolBox's adaptation policy react: the
//! `adaptation` column reads `Recharacterize` when the functioning domain
//! changes, `Redecide` when a sample reads as drift, `Keep` otherwise.
//!
//! Run with: `cargo run --release --example adaptive_feedback`

use smartapps::core::recognize::build::{histogram_update, indirect_load};
use smartapps::core::recognize::LoopNest;
use smartapps::core::toolbox::DomainKey;
use smartapps::prelude::*;

const W: u32 = 0; // reduction array
const X: u32 = 1; // index array (input data)
const F: u32 = 2; // field values (input data)

fn main() {
    // --- Static compilation stage. --------------------------------------
    // Source loop:  for i { w[x[i]] += f[x[i]] }
    let loop_ir = LoopNest {
        stmts: vec![histogram_update(W, X, indirect_load(F, X))],
    };
    let mut compiled = CompiledReduction::compile(&loop_ir, 7, 4, false)
        .expect("the histogram update is a textbook reduction");
    println!(
        "compiler recognized a `{:?}` reduction over array {} (statement {})",
        compiled.info.op, compiled.info.array, compiled.info.stmt
    );

    // --- Run-time stage: inputs arrive, optimization completes. ---------
    let n = 8_192;
    let f: Vec<f64> = (0..n).map(|e| (e as f64 * 0.37).sin().abs()).collect();

    println!("\ninvocation  domain      scheme  characterized  adaptation");
    let mut domains = Vec::new();
    for epoch in 0..8 {
        // The input index stream changes character at epoch 4: from dense
        // reuse (every element hit ~24x) to scattering over a tiny subset.
        let iters = if epoch < 4 { 200_000 } else { 3_000 };
        let spread = if epoch < 4 { n } else { 64 };
        let x: Vec<f64> = (0..iters)
            .map(|i| ((i * 2_654_435_761usize) % spread) as f64)
            .collect();
        if epoch % 4 == 3 {
            // The functioning domain the loop learns this phase under.
            let rows: Vec<Vec<u32>> = x.iter().map(|&xi| vec![xi as u32]).collect();
            let pat = AccessPattern::from_iters(n, &rows);
            domains.push(DomainKey::of(&PatternChars::measure(&pat)));
        }
        let inputs = Inputs::default().bind(X, &x).bind(F, &f);
        let (w, log) = compiled.run(n, iters, &inputs);
        println!(
            "{epoch:10}  {:10}  {:6}  {:13}  {:?}",
            if epoch < 4 { "dense" } else { "sparse" },
            log.scheme.abbrev(),
            if log.characterized { "yes" } else { "no" },
            log.adaptation
        );
        assert!(w.iter().all(|v| v.is_finite()));
    }

    let cal = compiled.adaptive.calibrator.lock().unwrap();
    println!(
        "\ncalibrator: {} samples accepted",
        cal.calibration_updates()
    );
    for (phase, domain) in ["dense", "sparse"].into_iter().zip(domains) {
        let corr = |s| cal.correction(s, domain, false);
        println!(
            "{phase:6} corrections learned: rep {:.2}, sel {:.2}, ll {:.2}, hash {:.2}",
            corr(Scheme::Rep),
            corr(Scheme::Sel),
            corr(Scheme::Ll),
            corr(Scheme::Hash),
        );
    }
}
