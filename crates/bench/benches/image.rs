//! Criterion benchmarks for the namespace-image pipeline: encode, buffered
//! decode, chunked streaming decode, and installing a decoded image into
//! the namespace. The wall-clock sweep lives in `bench_image` (the
//! binary); these isolate the per-stage costs at a fixed 50k-file tree.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mams_namespace::{
    decode_image, encode_image, NamespaceTree, ShardedNamespace, StreamingImageDecoder,
};

const FILES: u64 = 50_000;
const FILES_PER_DIR: u64 = 250;
const CHUNK: usize = 64 * 1024;

fn sample_tree() -> NamespaceTree {
    let ns = ShardedNamespace::new();
    let mut made = 0u64;
    'outer: for d in 0.. {
        let dir = format!("/project{d:04}/dataset");
        ns.mkdir_p(&dir).unwrap();
        for f in 0..FILES_PER_DIR {
            let p = format!("{dir}/part-{f:05}.data");
            ns.create(&p, 3).unwrap();
            ns.add_block(&p, made * 2 + 1).unwrap();
            ns.close_file(&p).unwrap();
            made += 1;
            if made >= FILES {
                break 'outer;
            }
        }
    }
    ns.into_tree()
}

fn bench_image_codec(c: &mut Criterion) {
    let tree = sample_tree();
    let img = encode_image(&tree, 1);

    let mut g = c.benchmark_group("image_codec");
    g.throughput(Throughput::Elements(FILES));
    g.bench_function("encode_50k", |b| b.iter(|| encode_image(&tree, 1)));
    g.bench_function("decode_50k", |b| b.iter(|| decode_image(img.data.clone()).unwrap()));
    g.bench_function("decode_and_install_50k", |b| {
        b.iter(|| ShardedNamespace::from_tree(decode_image(img.data.clone()).unwrap().0))
    });
    g.finish();
}

fn bench_streaming(c: &mut Criterion) {
    let img = encode_image(&sample_tree(), 1);

    let mut g = c.benchmark_group("image_streaming");
    g.throughput(Throughput::Bytes(img.size_bytes()));
    g.bench_function("buffered_decode", |b| b.iter(|| decode_image(img.data.clone()).unwrap()));
    g.bench_function("streaming_decode_64k_chunks", |b| {
        b.iter(|| {
            let mut d = StreamingImageDecoder::new();
            d.reserve_hint(img.size_bytes());
            for c in img.data.chunks(CHUNK) {
                d.push(c).unwrap();
            }
            d.finish().unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_image_codec, bench_streaming);
criterion_main!(benches);
