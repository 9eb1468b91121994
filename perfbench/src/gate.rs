//! The correctness gate: what a journey's result must say, and the digest
//! that must repeat across rounds of one seed.

use pdagent_gateway::pi::{ResultDoc, ResultStatus};
use pdagent_mas::ResultEntry;
use pdagent_vm::Value;

use crate::inputs::JourneyInput;
use crate::world::Journey;

/// Check that `result` carries the expected outcome of every transaction in
/// `input`: at each site of the itinerary, one receipt per transaction
/// addressed to that bank (in batch order, quoting payer, payee and amount),
/// then the site's settlement line with the running totals, and no declines
/// or errors.
pub fn check_result(input: &JourneyInput, result: &ResultDoc) -> Result<(), String> {
    if result.status != ResultStatus::Completed {
        return Err(format!("status {:?}", result.status));
    }
    let mut entries = result.entries.iter();
    let mut next = |what: &str| -> Result<&ResultEntry, String> {
        entries.next().ok_or_else(|| format!("result ends before {what}"))
    };
    let (mut executed, mut moved) = (0u64, 0i64);
    for site in &input.itinerary {
        for tx in input.txs.iter().filter(|t| &t.bank == site) {
            let e = next("a receipt")?;
            let rendered = e.value.render();
            let suffix = format!(":{}->{}:{}", tx.from, tx.to, tx.amount_cents);
            let serial = rendered
                .strip_prefix(&format!("rcpt-{site}-"))
                .and_then(|r| r.strip_suffix(&suffix));
            if e.site != *site
                || e.key != "receipt"
                || !serial.is_some_and(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
            {
                return Err(format!("expected receipt for {tx:?} at {site}, found {e:?}"));
            }
            executed += 1;
            moved += tx.amount_cents;
        }
        let e = next("a settlement")?;
        let want = format!("site={site} executed={executed} moved={moved} declined=0");
        if e.site != *site || e.key != "settled" || e.value != Value::Str(want.clone()) {
            return Err(format!("expected settlement {want:?}, found {e:?}"));
        }
    }
    match entries.next() {
        Some(extra) => Err(format!("unexpected entry {extra:?}")),
        None => Ok(()),
    }
}

/// Check one journey as the platform reported it: no errors, a timing
/// record, and a result that passes [`check_result`].
pub fn check_journey(input: &JourneyInput, j: &Journey) -> Result<(), String> {
    if let Some(e) = j.errors.first() {
        return Err(format!("device error: {e}"));
    }
    if j.timing.is_none() {
        return Err("no completed deployment".to_owned());
    }
    let result = j.result.as_ref().ok_or("no result collected")?;
    check_result(input, result)
}

/// FNV-1a over everything deterministic a journey produced: its online
/// times, wire sizes and the result document. Wall-clock data never enters.
pub fn digest(j: &Journey) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    if let Some(t) = &j.timing {
        eat(t.agent_id.as_bytes());
        for v in [
            t.dispatch_online.as_micros(),
            t.collect_online.as_micros(),
            t.pi_bytes as u64,
            t.result_bytes as u64,
        ] {
            eat(&v.to_le_bytes());
        }
    }
    if let Some(r) = &j.result {
        eat(r.to_document_string().as_bytes());
    }
    for e in &j.errors {
        eat(e.as_bytes());
    }
    h
}
