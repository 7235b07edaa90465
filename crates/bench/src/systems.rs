//! A uniform runner over every system the paper compares.

use rumble_baselines::{
    handtuned, naive, pyspark, rawspark, sparksql, ConfusionQuery, QueryOutput,
};
use rumble_core::Rumble;
use sparklite::SparkliteContext;

/// Every system in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Rumble,
    RawSpark,
    SparkSql,
    PySpark,
    ZorbaLike,
    XidelLike,
    HandTuned,
}

impl System {
    pub fn name(&self) -> &'static str {
        match self {
            System::Rumble => "Rumble",
            System::RawSpark => "Spark",
            System::SparkSql => "Spark SQL",
            System::PySpark => "PySpark",
            System::ZorbaLike => "Zorba-like",
            System::XidelLike => "Xidel-like",
            System::HandTuned => "hand-tuned",
        }
    }

    /// The four Spark-based systems of Fig. 11/13.
    pub fn spark_based() -> [System; 4] {
        [System::Rumble, System::RawSpark, System::SparkSql, System::PySpark]
    }

    /// The single-machine JSONiq engines of Fig. 12 (plus Rumble).
    pub fn jsoniq_engines() -> [System; 3] {
        [System::Rumble, System::ZorbaLike, System::XidelLike]
    }
}

/// The three JSONiq queries, as Rumble receives them (§6.1).
pub fn rumble_query(path: &str, query: ConfusionQuery) -> String {
    match query {
        ConfusionQuery::Filter => {
            format!("for $i in json-file(\"{path}\") where $i.guess = $i.target return $i")
        }
        ConfusionQuery::Group => format!(
            "for $i in json-file(\"{path}\") \
             group by $c := $i.country, $t := $i.target \
             return {{ c: $c, t: $t, n: count($i) }}"
        ),
        ConfusionQuery::Sort => format!(
            "for $i in json-file(\"{path}\") \
             where $i.guess = $i.target \
             order by $i.target ascending, $i.country descending, $i.date descending \
             return $i.sample"
        ),
    }
}

/// A Rumble engine for one query: auto-persist off, so the query parses
/// its input once, building only the fields it reads, and caches nothing,
/// as the baselines do.
fn one_query_engine(sc: &SparkliteContext) -> Rumble {
    let engine = Rumble::new(sc.clone());
    engine.set_auto_persist(None);
    engine
}

fn run_rumble(
    sc: &SparkliteContext,
    path: &str,
    query: ConfusionQuery,
) -> rumble_core::Result<QueryOutput> {
    let engine = one_query_engine(sc);
    let q = engine.compile(&rumble_query(path, query))?;
    match query {
        ConfusionQuery::Filter => Ok(QueryOutput::Count(q.count()?)),
        ConfusionQuery::Group => {
            let items = q.collect()?;
            let mut groups = Vec::with_capacity(items.len());
            for i in &items {
                let o = i.as_object().expect("constructed objects");
                groups.push((
                    o.get("c").and_then(|v| v.as_str()).unwrap_or("").to_string(),
                    o.get("t").and_then(|v| v.as_str()).unwrap_or("").to_string(),
                    o.get("n").and_then(|v| v.as_i64()).unwrap_or(0) as u64,
                ));
            }
            Ok(QueryOutput::Groups(groups))
        }
        ConfusionQuery::Sort => {
            let top = q.take(10)?;
            Ok(QueryOutput::TopSamples(
                top.iter().map(|i| i.as_str().unwrap_or("").to_string()).collect(),
            ))
        }
    }
}

/// Runs one system on one confusion query, end to end.
pub fn run_confusion(
    system: System,
    sc: &SparkliteContext,
    path: &str,
    query: ConfusionQuery,
) -> Result<QueryOutput, String> {
    let to_s = |e: &dyn std::fmt::Display| e.to_string();
    match system {
        System::Rumble => run_rumble(sc, path, query).map_err(|e| to_s(&e)),
        System::RawSpark => rawspark::run(sc, path, query).map_err(|e| to_s(&e)),
        System::SparkSql => sparksql::run(sc, path, query).map_err(|e| to_s(&e)),
        System::PySpark => pyspark::run(sc, path, query).map_err(|e| to_s(&e)),
        System::ZorbaLike => naive::NaiveEngine::new(naive::zorba_like(), sc)
            .run_confusion(path, query)
            .map_err(|e| to_s(&e)),
        System::XidelLike => naive::NaiveEngine::new(naive::xidel_like(), sc)
            .run_confusion(path, query)
            .map_err(|e| to_s(&e)),
        System::HandTuned => handtuned::run(sc, path, query).map_err(|e| to_s(&e)),
    }
}

/// The Fig. 14/15 Reddit query: a highly selective filter + count.
pub fn run_reddit_filter(sc: &SparkliteContext, path: &str) -> rumble_core::Result<u64> {
    let engine = one_query_engine(sc);
    let q = engine.compile(&format!(
        "for $c in json-file(\"{path}\") \
         where contains($c.body, \"{}\") \
         return $c",
        rumble_datagen::reddit::NEEDLE
    ))?;
    q.count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumble_datagen::{confusion, put_dataset, DEFAULT_SEED};
    use sparklite::SparkliteConf;

    #[test]
    fn all_systems_agree_on_every_query() {
        let sc = SparkliteContext::new(SparkliteConf::default().with_executors(4));
        put_dataset(&sc, "hdfs:///bench.json", &confusion::generate(600, DEFAULT_SEED)).unwrap();
        for query in [ConfusionQuery::Filter, ConfusionQuery::Group, ConfusionQuery::Sort] {
            let reference = run_confusion(System::RawSpark, &sc, "hdfs:///bench.json", query)
                .unwrap()
                .normalized();
            for system in [
                System::Rumble,
                System::SparkSql,
                System::PySpark,
                System::ZorbaLike,
                System::XidelLike,
                System::HandTuned,
            ] {
                let out = run_confusion(system, &sc, "hdfs:///bench.json", query)
                    .unwrap_or_else(|e| panic!("{} failed on {query:?}: {e}", system.name()))
                    .normalized();
                assert_eq!(out, reference, "{} disagrees on {query:?}", system.name());
            }
        }
    }

    #[test]
    fn reddit_filter_finds_needles() {
        let sc = SparkliteContext::new(SparkliteConf::default().with_executors(4));
        let text = rumble_datagen::reddit::generate(20_000, DEFAULT_SEED);
        let expected = text.matches(rumble_datagen::reddit::NEEDLE).count() as u64;
        put_dataset(&sc, "hdfs:///reddit.json", &text).unwrap();
        assert_eq!(run_reddit_filter(&sc, "hdfs:///reddit.json").unwrap(), expected);
        assert!(expected > 0);
    }
}
