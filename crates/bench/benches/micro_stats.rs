//! Criterion micro-benchmarks for the robust-statistics substrate:
//! Theil–Sen, Spearman and medians.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dasr_stats::{median, spearman, TheilSen};

fn series(n: usize) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let y: Vec<f64> = x
        .iter()
        .map(|v| 2.0 * v + ((v * 0.7).sin() * 50.0))
        .collect();
    (x, y)
}

fn bench_trends(c: &mut Criterion) {
    let mut g = c.benchmark_group("trend_estimators");
    for n in [10usize, 30, 60] {
        let (x, y) = series(n);
        g.bench_function(format!("theil_sen_n{n}"), |b| {
            let est = TheilSen::new();
            b.iter(|| black_box(est.trend(black_box(&x), black_box(&y))))
        });
    }
    g.finish();
}

fn bench_correlation_and_aggregates(c: &mut Criterion) {
    let (x, y) = series(60);
    c.bench_function("spearman_n60", |b| {
        b.iter(|| black_box(spearman(black_box(&x), black_box(&y))))
    });
    c.bench_function("median_n60", |b| {
        b.iter(|| black_box(median(black_box(&y))))
    });
}

criterion_group!(benches, bench_trends, bench_correlation_and_aggregates);
criterion_main!(benches);
