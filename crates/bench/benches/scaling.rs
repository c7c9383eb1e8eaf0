//! Thread-scaling microbenchmarks of the two dense hot paths.
//!
//! DGEMM (n = 768) and the HPL LU factorization (n = 512) at logical
//! widths 1/2/4/max, driven through `ThreadPool::install` so each
//! measurement pins the executor's split width. `cargo bench -p
//! hpceval-bench --bench scaling` prints the full sweep; the repository's
//! `benchmark/` package is where speed is recorded and gated.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use hpceval_kernels::hpcc::dgemm::dgemm;
use hpceval_kernels::hpl::lu;
use hpceval_kernels::rng::NpbRng;

const DGEMM_N: usize = 768;
const LU_N: usize = 512;

/// 1, 2, 4 and the machine's hardware width, deduplicated and sorted.
fn widths() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut w = vec![1, 2, 4, max];
    w.sort_unstable();
    w.dedup();
    w
}

fn bench_dgemm_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling/dgemm");
    let n = DGEMM_N;
    let mut rng = NpbRng::new(17);
    let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let b2: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    g.throughput(Throughput::Elements((2 * n * n * n) as u64));
    for t in widths() {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
        g.bench_function(format!("n{n}_t{t}"), |bch| {
            bch.iter_batched(
                || vec![0.0; n * n],
                |mut cm| {
                    pool.install(|| dgemm(n, 1.0, &a, &b2, 0.0, &mut cm));
                    black_box(cm)
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_lu_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling/hpl_lu");
    let n = LU_N;
    let a = lu::Matrix::random(n, 5);
    g.throughput(Throughput::Elements((2 * n * n * n / 3) as u64));
    for t in widths() {
        g.bench_function(format!("n{n}_nb32_t{t}"), |b| {
            b.iter_batched(
                || a.clone(),
                |m| black_box(lu::factor(m, 32, t).expect("nonsingular")),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(scaling, bench_dgemm_scaling, bench_lu_scaling);
criterion_main!(scaling);
