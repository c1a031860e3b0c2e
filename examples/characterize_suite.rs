//! Full Table II regeneration through the library API (the binary
//! `table2` in `alberta-bench` wraps the same calls).
//!
//! ```text
//! cargo run --release --example characterize_suite [test|train|ref]
//! ```

use alberta::core::tables;
use alberta::core::Suite;
use alberta::workloads::Scale;

fn main() -> Result<(), alberta::core::CoreError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "test".to_owned());
    let Some(scale) = Scale::from_name(&name) else {
        eprintln!("error: unknown scale {name:?}; valid scales are: test, train, ref");
        std::process::exit(2);
    };
    let suite = Suite::new(scale);
    let table = tables::table2(&suite)?;
    println!("{}", table.render());
    println!("{}", table.render_comparison());
    Ok(())
}
