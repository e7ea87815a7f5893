//! The correctness gate: sampled responses checked bit for bit against
//! the `igen-interp` reference evaluator, which shares no code with the
//! `igen-vm` executor or the `igen-batch` engine that produced them.

use crate::gen::Rng;
use igen_core::{interp_reference, interp_reference_dd, Config, OptLevel, Precision};
use igen_interp::Interp;
use igen_session::{
    compile_uncached, workload_dd, workload_f64, BindRequest, CompileRequest, CompiledUnit,
};
use igen_telemetry::json::{self, Json};
use std::collections::hash_map::{Entry, HashMap};

/// A `run` request line, decoded into the service's cache key and run
/// parameters. Built the way the service builds it, so the key equals
/// the one the service caches under.
pub struct Request {
    /// The compile-cache key.
    pub compile: CompileRequest,
    /// Batch items.
    pub batch: usize,
    /// Input-workload seed.
    pub seed: u64,
    /// Batch-engine threads.
    pub threads: usize,
}

impl Request {
    /// Decodes a request line the ledger generated.
    pub fn decode(v: &Json) -> Result<Request, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("request has no \"{k}\""));
        let int = |k: &str, default: u64| v.get(k).map_or(Some(default), Json::as_u64);
        let source = field("source")?.as_str().ok_or("\"source\" is not a string")?;
        let cfg = Config {
            opt_level: match int("opt_level", 2) {
                Some(0) => OptLevel::O0,
                Some(1) => OptLevel::O1,
                _ => OptLevel::O2,
            },
            precision: match v.get("precision").and_then(Json::as_str) {
                Some("dd") => Precision::Dd,
                _ => Precision::F64,
            },
            ..Config::default()
        };
        // Json objects iterate in key order, as the service's do.
        let named = |k: &str| -> Vec<(String, i64)> {
            match v.get(k) {
                Some(Json::Obj(m)) => {
                    m.iter().filter_map(|(n, x)| Some((n.clone(), x.as_i64()?))).collect()
                }
                _ => Vec::new(),
            }
        };
        let lens = named("lens").into_iter().map(|(n, l)| (n, l as usize)).collect();
        Ok(Request {
            compile: CompileRequest {
                source: source.into(),
                origin: "request".to_string(),
                fn_name: None,
                cfg,
                bind: BindRequest::FromParams { int_args: named("args"), lens, size: 8 },
                peephole: true,
            },
            batch: int("batch", 8).ok_or("bad \"batch\"")? as usize,
            seed: int("seed", 0x16e0).ok_or("bad \"seed\"")?,
            threads: int("threads", 1).ok_or("bad \"threads\"")? as usize,
        })
    }

    /// Decodes a request line from text.
    pub fn parse(line: &str) -> Result<Request, String> {
        Request::decode(&json::parse(line)?)
    }

    /// Whether the program runs in double-double.
    pub fn is_dd(&self) -> bool {
        self.compile.cfg.precision == Precision::Dd
    }

    /// A string identifying the compile-cache key.
    pub fn key(&self) -> String {
        let c = &self.compile;
        format!("{:?}|{:?}|{:?}|{}", c.cfg.opt_level, c.cfg.precision, c.bind, c.source)
    }
}

/// The gate's findings.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Responses checked.
    pub lines: usize,
    /// Batch items evaluated by the reference.
    pub items: usize,
    /// Responses with at least one wrong endpoint or a wrong shape.
    pub mismatches: usize,
    /// The first few mismatch descriptions.
    pub notes: Vec<String>,
}

/// Items of a `batch`-item response the reference evaluates: all of a
/// small batch; otherwise a seeded dozen plus every item of the
/// scalar tail (the items past the last full group of four) and the
/// last item.
pub fn items_to_check(batch: usize, seed: u64) -> Vec<usize> {
    if batch <= 16 {
        return (0..batch).collect();
    }
    let mut rng = Rng::stream(seed, 0x6a7e, batch as u64);
    let mut items: Vec<usize> = (0..12).map(|_| rng.int(0, batch as u64 - 1) as usize).collect();
    items.extend(batch - batch % 4..batch);
    items.push(batch - 1);
    items.sort_unstable();
    items.dedup();
    items
}

/// Whether one response endpoint equals the reference value bit for
/// bit. Non-finite endpoints travel as the strings `"NaN"`, `"inf"` and
/// `"-inf"`.
fn same(got: &Json, want: f64) -> bool {
    match got {
        Json::Num(x) => want.is_finite() && x.to_bits() == want.to_bits(),
        Json::Str(s) => match s.as_str() {
            "NaN" => want.is_nan(),
            "inf" => want == f64::INFINITY,
            "-inf" => want == f64::NEG_INFINITY,
            _ => false,
        },
        _ => false,
    }
}

/// Recompiles each sampled line's source with `igen_core::Compiler`
/// (through [`compile_uncached`], whose `out` is that compile), evaluates
/// the chosen items through `interp_reference[_dd]` on the inputs
/// `workload_f64`/`workload_dd` generate, and compares every endpoint
/// with the response. The sample holds ok responses only: the load loop
/// counts failures.
pub fn check(sample: impl IntoIterator<Item = (String, String)>, seed: u64) -> Verdict {
    let mut v = Verdict::default();
    let mut programs: HashMap<String, CompiledUnit> = HashMap::new();
    for (line, response) in sample {
        v.lines += 1;
        let line = line.as_str();
        let resp = match json::parse(&response) {
            Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => r,
            Ok(_) => {
                v.fail(format!("an error response to {}", short(line)));
                continue;
            }
            Err(e) => {
                v.fail(format!("unparsable response ({e}) to {}", short(line)));
                continue;
            }
        };
        match check_one(line, &resp, seed, &mut programs) {
            Ok(items) => v.items += items,
            Err(e) => v.fail(format!("{e} in response to {}", short(line))),
        }
    }
    v
}

impl Verdict {
    fn fail(&mut self, note: String) {
        self.mismatches += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }
}

fn short(line: &str) -> String {
    line.chars().take(120).collect()
}

fn check_one(
    line: &str,
    resp: &Json,
    seed: u64,
    programs: &mut HashMap<String, CompiledUnit>,
) -> Result<usize, String> {
    let req = Request::parse(line)?;
    let unit = match programs.entry(req.key()) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            e.insert(compile_uncached(&req.compile, false).map_err(|e| e.to_string())?)
        }
    };
    let (nin, nout) = (unit.n_inputs(), unit.n_outputs());
    let outputs = resp.get("outputs").and_then(Json::as_arr).ok_or("no \"outputs\"")?;
    let items = resp.get("items").and_then(Json::as_u64).ok_or("no \"items\"")? as usize;
    if items != req.batch || outputs.len() != items * nout {
        return Err(format!(
            "shape: {items} items, {} outputs for batch {}",
            outputs.len(),
            req.batch
        ));
    }
    let mut interp = Interp::new(&unit.out.unit);
    let picked = items_to_check(items, seed ^ req.seed);
    let (name, bind) = (&unit.fn_name, &unit.bind);
    // Per picked item, per output slot: the reference endpoints in the
    // order the response prints them.
    let expected: Vec<Vec<Vec<f64>>> = if req.is_dd() {
        let inputs = workload_dd(unit, items, req.seed).to_intervals();
        picked
            .iter()
            .map(|&i| {
                let want = interp_reference_dd(&mut interp, name, bind, &inputs[i * nin..][..nin]);
                let want = want.map_err(|e| e.to_string())?;
                Ok(want
                    .iter()
                    .map(|d| vec![d.lo().hi(), d.lo().lo(), d.hi().hi(), d.hi().lo()])
                    .collect())
            })
            .collect::<Result<_, String>>()?
    } else {
        let inputs = workload_f64(unit, items, req.seed).to_intervals();
        picked
            .iter()
            .map(|&i| {
                let want = interp_reference(&mut interp, name, bind, &inputs[i * nin..][..nin]);
                Ok(want.map_err(|e| e.to_string())?.iter().map(|x| vec![x.lo(), x.hi()]).collect())
            })
            .collect::<Result<_, String>>()?
    };
    for (&item, endpoints) in picked.iter().zip(&expected) {
        for (slot, want) in endpoints.iter().enumerate() {
            let got = outputs[item * nout + slot].as_arr().ok_or("output is not an array")?;
            if got.len() != want.len() || got.iter().zip(want).any(|(g, &w)| !same(g, w)) {
                return Err(format!("item {item} output {slot}: {got:?} != reference {want:?}"));
            }
        }
    }
    Ok(picked.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_every_small_item_and_the_scalar_tail_of_large_batches() {
        assert_eq!(items_to_check(3, 1), vec![0, 1, 2]);
        let picked = items_to_check(63, 1);
        assert!(picked.ends_with(&[60, 61, 62]), "{picked:?}");
        assert!(picked.len() <= 16);
        let picked = items_to_check(64, 1);
        assert_eq!(picked.last(), Some(&63));
        assert_eq!(items_to_check(1000, 5), items_to_check(1000, 5));
    }

    #[test]
    fn endpoints_compare_bitwise_and_non_finite_as_strings() {
        assert!(same(&Json::Num(0.1), 0.1));
        assert!(!same(&Json::Num(0.0), -0.0));
        assert!(same(&Json::Str("NaN".into()), f64::NAN));
        assert!(same(&Json::Str("-inf".into()), f64::NEG_INFINITY));
        assert!(!same(&Json::Str("inf".into()), f64::NEG_INFINITY));
    }

    #[test]
    fn a_corrupted_endpoint_is_a_mismatch() {
        // The linear filter over a 63-item batch: 15 packed groups and a
        // three-item scalar tail, in f64 and in dd.
        let gen = crate::gen::Gen::new(crate::gen::Workload::WarmMixed, 1);
        let svc = igen_session::Service::start(igen_session::ServiceConfig::default());
        for e in [&gen.catalogue[4], &gen.catalogue[9]] {
            let line = e.run_line(63, 3, 1);
            let good = svc.submit(&line).wait();
            let v = check([(line.clone(), good.clone())], 1);
            assert_eq!((v.lines, v.mismatches), (1, 0), "{e:?}: {:?}", v.notes);
            assert!(v.items >= 3);
            // Flip the last digit of the last endpoint, which belongs to
            // the last item: always checked.
            let at = good.rfind(|c: char| c.is_ascii_digit()).expect("a digit");
            let mut bad = good.clone();
            bad.replace_range(at..=at, if &good[at..=at] == "1" { "2" } else { "1" });
            let v = check([(line, bad)], 1);
            assert_eq!(v.mismatches, 1, "{e:?}: {:?}", v.notes);
        }
    }
}
