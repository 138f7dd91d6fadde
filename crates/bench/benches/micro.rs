//! Micro-benchmarks: the primitive operations underlying every experiment.

use cam_core::{CamChord, CamKoorde};
use cam_overlay::StaticOverlay;
use cam_ring::Id;
use cam_workload::Scenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup");
    for n in [1_000usize, 10_000, 100_000] {
        let members = Scenario::paper_default(1).with_n(n).members();
        let chord = CamChord::new(members.clone());
        let koorde = CamKoorde::new(members.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let space = members.space();
        group.bench_with_input(BenchmarkId::new("cam_chord", n), &n, |b, _| {
            b.iter(|| {
                let origin = rng.gen_range(0..n);
                let key = Id(rng.gen_range(0..space.size()));
                chord.lookup(origin, key).hops()
            })
        });
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(3);
        group.bench_with_input(BenchmarkId::new("cam_koorde", n), &n, |b, _| {
            b.iter(|| {
                let origin = rng2.gen_range(0..n);
                let key = Id(rng2.gen_range(0..space.size()));
                koorde.lookup(origin, key).hops()
            })
        });
    }
    group.finish();
}

fn bench_multicast_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("multicast_tree");
    group.sample_size(20);
    for n in [1_000usize, 4_000, 10_000, 100_000] {
        let members = Scenario::paper_default(4).with_n(n).members();
        let chord = CamChord::new(members.clone());
        group.bench_with_input(BenchmarkId::new("cam_chord", n), &n, |b, _| {
            b.iter(|| {
                let t = chord.multicast_tree(0);
                debug_assert!(t.is_complete());
                t.delivered()
            })
        });
        let koorde = CamKoorde::new(members.clone());
        group.bench_with_input(BenchmarkId::new("cam_koorde", n), &n, |b, _| {
            b.iter(|| koorde.multicast_tree(0).delivered())
        });
    }
    group.finish();
}

fn bench_overlay_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let members = Scenario::paper_default(5).with_n(n).members();
        group.bench_with_input(BenchmarkId::new("cam_koorde_adjacency", n), &n, |b, _| {
            b.iter(|| CamKoorde::new(members.clone()).members().len())
        });
        group.bench_with_input(BenchmarkId::new("member_generation", n), &n, |b, _| {
            b.iter(|| Scenario::paper_default(6).with_n(n).members().len())
        });
    }
    group.finish();
}

fn bench_sha1(c: &mut Criterion) {
    let data = vec![0xA5u8; 4096];
    c.bench_function("sha1_4k", |b| {
        b.iter(|| cam_ring::sha1::Sha1::digest(&data))
    });
}

criterion_group!(
    benches,
    bench_lookup,
    bench_multicast_tree,
    bench_overlay_construction,
    bench_sha1
);
criterion_main!(benches);
