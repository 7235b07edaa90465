//! Micro-benchmarks of the substrates (not a paper figure): JSON parsing
//! into items, the item codec, and the core sparklite primitives. These
//! bound what the end-to-end numbers can possibly be and make regressions
//! attributable.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rumble_core::item::{decode_items, encode_items, items_from_json_lines, ItemBuilder};
use rumble_datagen::{confusion, DEFAULT_SEED};
use sparklite::{SparkliteConf, SparkliteContext};

fn bench(c: &mut Criterion) {
    let text = confusion::generate(5_000, DEFAULT_SEED);
    let n_lines = text.lines().count();

    // JSON Lines → items (the §5.7 hot loop), one builder over the whole
    // block as a `json-file` partition parses it.
    let mut g = c.benchmark_group("substrate/json-parse");
    g.throughput(Throughput::Elements(n_lines as u64));
    g.bench_function("items", |b| {
        b.iter(|| items_from_json_lines(&text).expect("valid block").len())
    });
    // The same block projected to the two fields the Fig. 11 group query
    // reads: the parser validates the other members without handing them
    // to the builder.
    let group_fields = Some(["country", "target"].into_iter().map(Into::into).collect());
    g.bench_function("items-projected", |b| {
        b.iter(|| {
            let mut builder = ItemBuilder::projecting(Clone::clone(&group_fields));
            builder.parse_lines(&text).expect("valid block").len()
        })
    });
    // The parser alone, into a sink that builds nothing: the floor under
    // both arms above.
    g.bench_function("tokenize", |b| {
        b.iter(|| {
            let mut n = 0;
            for (_, line) in jsonlite::JsonLines::new(&text) {
                jsonlite::parse(line, &mut Discard).expect("valid line");
                n += 1;
            }
            n
        })
    });
    g.finish();

    // The binary item codec (DataFrame Bin columns, §4.3).
    let items = items_from_json_lines(&text).expect("valid block");
    let encoded: Vec<Vec<u8>> =
        items.iter().map(|i| encode_items(std::slice::from_ref(i))).collect();
    let mut g = c.benchmark_group("substrate/item-codec");
    g.throughput(Throughput::Elements(items.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| items.iter().map(|i| encode_items(std::slice::from_ref(i)).len()).sum::<usize>())
    });
    g.bench_function("decode", |b| {
        b.iter(|| encoded.iter().map(|e| decode_items(e).expect("valid").len()).sum::<usize>())
    });
    g.finish();

    // Raw sparklite primitives.
    let sc = SparkliteContext::new(SparkliteConf::default().with_executors(4));
    let data: Vec<i64> = (0..200_000).collect();
    let mut g = c.benchmark_group("substrate/sparklite");
    g.sample_size(10);
    g.bench_function("map-filter-count", |b| {
        b.iter(|| {
            sc.parallelize(data.clone(), 16)
                .map(|x| x * 3)
                .filter(|x| x % 7 == 0)
                .count()
                .expect("job runs")
        })
    });
    g.bench_function("reduce-by-key", |b| {
        b.iter(|| {
            sc.parallelize(data.clone(), 16)
                .map(|x| (x % 100, 1u64))
                .reduce_by_key(|a, b| a + b, 8)
                .collect()
                .expect("job runs")
                .len()
        })
    });
    g.bench_function("sort", |b| {
        b.iter(|| {
            sc.parallelize(data.clone(), 16)
                .sort_by(|x| std::cmp::Reverse(*x), true, 8)
                .take(10)
                .expect("job runs")
        })
    });
    g.finish();
}

/// A parse sink that keeps nothing.
struct Discard;

impl jsonlite::JsonSink for Discard {
    fn null(&mut self) -> jsonlite::Result<()> {
        Ok(())
    }
    fn boolean(&mut self, _: bool) -> jsonlite::Result<()> {
        Ok(())
    }
    fn integer(&mut self, _: i64) -> jsonlite::Result<()> {
        Ok(())
    }
    fn decimal(&mut self, _: &str) -> jsonlite::Result<()> {
        Ok(())
    }
    fn double(&mut self, _: f64) -> jsonlite::Result<()> {
        Ok(())
    }
    fn string(&mut self, _: &str) -> jsonlite::Result<()> {
        Ok(())
    }
    fn begin_object(&mut self) -> jsonlite::Result<()> {
        Ok(())
    }
    fn key(&mut self, _: &str) -> jsonlite::Result<()> {
        Ok(())
    }
    fn end_object(&mut self) -> jsonlite::Result<()> {
        Ok(())
    }
    fn begin_array(&mut self) -> jsonlite::Result<()> {
        Ok(())
    }
    fn end_array(&mut self) -> jsonlite::Result<()> {
        Ok(())
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
