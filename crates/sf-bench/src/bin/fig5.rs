//! Regenerates Figure 5: the blocking vs non-blocking pipeline timeline —
//! with real threads, using the paper's exact scenario (slow batch "b"
//! takes longer than a training step; batch "c" is ready first).

use sf_data::loader::{Dataset, Loader, LoaderConfig, LoaderKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paper scenario, scaled 1 s → 20 ms: batches a/b/c/d with prep times
/// 2/7/2/2 "seconds" and training steps of 4 "seconds".
const SCALE_MS: u64 = 20;

struct PaperScenario;

impl Dataset for PaperScenario {
    type Item = char;

    fn len(&self) -> usize {
        4
    }

    fn prepare(&self, index: usize) -> char {
        let prep = [2u64, 7, 2, 2][index];
        std::thread::sleep(Duration::from_millis(prep * SCALE_MS));
        [b'a', b'b', b'c', b'd'][index] as char
    }
}

fn run(kind: LoaderKind) -> (String, Duration) {
    let ds = Arc::new(PaperScenario);
    let order = vec![0, 1, 2, 3];
    let cfg = LoaderConfig::with_workers(2);
    let start = Instant::now();
    let mut yielded = String::new();
    let train = Duration::from_millis(4 * SCALE_MS);
    for item in Loader::new(ds, order, cfg, kind) {
        let (_, c) = item.expect("no faults in the paper scenario");
        yielded.push(c);
        std::thread::sleep(train);
    }
    (yielded, start.elapsed())
}

fn main() {
    sf_bench::banner("Figure 5: blocking vs non-blocking data pipeline");
    println!("scenario: prep a=2 b=7 c=2 d=2, training step=4 (x{SCALE_MS} ms)");
    let (order_b, t_b) = run(LoaderKind::Blocking);
    let (order_nb, t_nb) = run(LoaderKind::NonBlocking);
    println!(
        "(i)  PyTorch-style blocking : yields \"{order_b}\"  wall {:.0} ms",
        t_b.as_secs_f64() * 1000.0
    );
    println!(
        "(ii) ScaleFold non-blocking : yields \"{order_nb}\"  wall {:.0} ms",
        t_nb.as_secs_f64() * 1000.0
    );
    println!();
    println!(
        "non-blocking saved {:.0} ms; the slow batch 'b' was deferred, not blocking",
        (t_b.saturating_sub(t_nb)).as_secs_f64() * 1000.0
    );
    assert_ne!(order_nb.find('b'), Some(1), "b should yield late");
}
