//! Full Table II regeneration through the library API: one sweep, one
//! report, one rendering (`bench-report` and the `table2` binary in
//! `alberta-bench` split the same calls between them).
//!
//! ```text
//! cargo run --release --example characterize_suite [test|train|ref]
//! ```

use alberta::core::Suite;
use alberta::report::{view, SuiteReport};
use alberta::workloads::Scale;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "test".to_owned());
    let Some(scale) = Scale::from_name(&name) else {
        eprintln!("error: unknown scale {name:?}; valid scales are: test, train, ref");
        std::process::exit(2);
    };
    let results = Suite::new(scale).characterize_all_resilient_metered();
    let report = SuiteReport::from_resilient(scale, &results);
    let table = view::table2(&report);
    println!("{}", table.render());
    println!("{}", table.render_comparison());
}
