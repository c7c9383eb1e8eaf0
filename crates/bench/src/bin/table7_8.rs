//! Regenerates **Tables VII and VIII** — the HPCC-trained regression
//! model's fit diagnostics and coefficient vector on server Xeon-4870.

use hpceval_bench::{heading, json_requested};
use hpceval_core::regression_experiment::{collect_training, train};
use hpceval_machine::pmu::PmuCounters;
use hpceval_machine::presets;

fn main() {
    let spec = presets::xeon_4870();
    let samples = collect_training(&spec, 25, 42);
    let model = train(&samples).expect("HPCC training set is well conditioned");
    let s = model.summary();
    if json_requested() {
        println!("{}", serde_json::to_string_pretty(&model).expect("serializable"));
        return;
    }
    heading("Table VII", "Regression result on server Xeon-4870");
    println!("{:<22} {:>14}", "Name", "Value");
    println!("{:<22} {:>14.9}", "Multiple R", s.multiple_r);
    println!("{:<22} {:>14.9}", "R Square", s.r_square);
    println!("{:<22} {:>14.9}", "Adjusted R Square", s.adjusted_r_square);
    println!("{:<22} {:>14.9}", "Standard Error", s.standard_error);
    println!("{:<22} {:>14}", "Observation", s.observations);
    println!("\npaper: Multiple R 0.9697, R Square 0.9403, Std Error 0.2444, n = 6056");

    println!();
    heading("Table VIII", "Index on server Xeon-4870");
    let b = model.coefficients();
    print!("{:<18}", "Index");
    for i in 1..=6 {
        print!(" {:>12}", format!("b{i}"));
    }
    println!(" {:>12}", "C");
    print!("{:<18}", "Value");
    for v in &b {
        print!(" {v:>12.6}");
    }
    println!(" {:>12.3e}", model.report.model.intercept);
    print!("{:<18}", "Indicator");
    for name in PmuCounters::FEATURE_NAMES {
        print!(" {name:>12.12}");
    }
    println!();
    println!("\npaper: b1 0.1216, b2 0.8369, b3 -0.0086, b4 -0.0077, b5 0.0875, b6 -0.0705,");
    println!("C 2.37e-14 — b2 (instructions) dominates with b1 (cores) next.");
    let mut ranked: Vec<usize> = (0..b.len()).collect();
    ranked.sort_by(|&i, &j| b[j].abs().total_cmp(&b[i].abs()));
    let ranked: Vec<String> = ranked
        .iter()
        .map(|&i| format!("b{} ({}) {:.3}", i + 1, PmuCounters::FEATURE_NAMES[i], b[i]))
        .collect();
    println!("here, by |b|: {}.", ranked.join(", "));
}
