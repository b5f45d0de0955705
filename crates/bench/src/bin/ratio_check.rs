//! Quick compressibility probe for the synthetic datasets: SZx ratios at
//! the paper's three error bounds plus the Table VI fields. Used when
//! (re)tuning the generators against the paper's Table II/VI regimes.
//!
//! ```bash
//! cargo run --release -p ccoll-bench --bin ratio_check
//! cargo run --release -p ccoll-bench --bin ratio_check -- --check
//! ```
//!
//! `--check` is the SZx ratio gate: it compresses one fixed Hurricane
//! field at each of the paper's three error bounds and exits 1 unless
//! the stream sizes are exactly the pinned ones, so a change that costs
//! (or saves) wire bytes has to say so by re-pinning [`PINNED`].

use ccoll_compress::{Compressor, SzxCodec};
use ccoll_data::{Dataset, FieldSpec};

/// Values and seed of the gate's Hurricane field.
const GATE_VALUES: usize = 1 << 20;
const GATE_SEED: u64 = 1;

/// SZx stream bytes of the gate's field at each error bound. Storing
/// every block base as a raw `f32` (the `"SZX1"` stream) took 36 629,
/// 439 009 and 840 066 bytes; grid bases with plain quantized blocks only
/// (`"SZX2"`) 6 256, 392 925 and 814 040.
const PINNED: [(f32, usize); 3] = [(1e-2, 6_256), (1e-3, 278_441), (1e-4, 454_012)];

fn ratio(d: &[f32], eb: f32) -> f64 {
    (d.len() * 4) as f64 / SzxCodec::new(eb).compress(d).expect("compress").len() as f64
}

/// Recompute the gate's stream sizes; report each against its pin.
fn check() -> bool {
    let field = Dataset::Hurricane.generate(GATE_VALUES, GATE_SEED);
    let mut ok = true;
    for (eb, pinned) in PINNED {
        let bytes = SzxCodec::new(eb).compress(&field).expect("compress").len();
        let per_value = |b: usize| b as f64 / GATE_VALUES as f64;
        println!(
            "Hurricane {GATE_VALUES} values, eb {eb:e}: {bytes} B ({:.4} B/value), pinned {pinned} B ({:.4} B/value)",
            per_value(bytes),
            per_value(pinned)
        );
        ok &= bytes == pinned;
    }
    ok
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        if !check() {
            eprintln!("SZx stream sizes drifted from the pinned ones");
            std::process::exit(1);
        }
        return;
    }
    let n: usize = std::env::var("CCOLL_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);
    println!("SZx compression ratios on {n}-value synthetic fields");
    for ds in Dataset::ALL {
        let f = ds.generate(n, 1);
        println!(
            "{:10} 1e-2:{:6.1} 1e-3:{:6.1} 1e-4:{:6.1}",
            ds.label(),
            ratio(&f, 1e-2),
            ratio(&f, 1e-3),
            ratio(&f, 1e-4)
        );
    }
    println!("Table VI fields (paper: PRECIPf 33.8, QGRAUPf 58.3, CLOUDf 39.9, Q 79.1):");
    for spec in FieldSpec::TABLE6 {
        let f = spec.generate(n, 11);
        println!("{:10} 1e-4:{:6.1}", spec.name, ratio(&f, 1e-4));
    }
}
