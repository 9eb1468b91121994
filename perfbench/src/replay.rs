//! The traced pass: replay every journey's layer calls outside the
//! simulator, on the workload's own generated inputs, and time each call
//! from outside with a span.
//!
//! The calls are the ones the platform makes on a journey: the device
//! unpacks its subscription download and packs the PI (XML write, compress,
//! seal); the gateway opens, decompresses and parses it and stages the
//! agent; each MAS hop decodes the agent, runs it on the VM and encodes it
//! again; the gateway packs the result document and the device unpacks it.
//! Spans live in memory and are written out when the run ends.

use std::time::Instant;

use pdagent_apps::BankService;
use pdagent_codec::compress::{compress, decompress, sniff_algorithm, Algorithm};
use pdagent_core::Subscription;
use pdagent_crypto::envelope::{open_envelope, seal_envelope};
use pdagent_crypto::keys::UniqueId;
use pdagent_crypto::rsa::KeyPair;
use pdagent_gateway::filedir::{FileDirectory, FileKind};
use pdagent_gateway::pi::{PackedInformation, ResultDoc};
use pdagent_mas::{AgentId, Itinerary, MobileAgent, Service};
use pdagent_vm::{run, Host, Outcome, Value};
use pdagent_xml::Element;

use crate::gate::check_result;
use crate::inputs::{JourneyInput, FUNDS};
use crate::world::{deploy_request, gateway_key_seed, gateway_name, SERVICE};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Journey the call belongs to (shared by all of its spans).
    pub journey: u32,
    /// Span id, unique within a recorder.
    pub id: u32,
    /// Enclosing span, 0 for a top-level call.
    pub parent: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Records nested spans around closures.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    open: Vec<u32>,
    journey: u32,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder { base: Instant::now(), spans: Vec::new(), open: Vec::new(), journey: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name`, nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span { journey: self.journey, id, parent, name, start_ns, end_ns: 0 });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        out
    }

    /// Total duration of top-level spans, µs: the summed self time of every
    /// layer, since a span's self time excludes its children.
    pub fn self_time_us(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent == 0).map(Span::us).sum()
    }

    /// Durations of every span called `name`, µs.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"journey\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.journey, s.id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

/// Byte and algorithm tallies of the replayed codec calls.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CodecTally {
    /// Bytes fed to `compress`.
    pub compress_in: u64,
    /// Bytes `compress` produced.
    pub compress_out: u64,
    /// Bytes `decompress` produced.
    pub decompress_out: u64,
    /// Containers by algorithm: store, rle, lzss, huffman, lzss_huffman.
    pub picks: [u64; 5],
    /// Agent wire bytes per MAS hop codec call.
    pub agent_bytes: Vec<u64>,
}

impl CodecTally {
    fn compress(&mut self, rec: &mut Recorder, data: &[u8]) -> Vec<u8> {
        let out = rec.span("codec.compress", |_| compress(data, Algorithm::Auto));
        self.compress_in += data.len() as u64;
        self.compress_out += out.len() as u64;
        let slot = match sniff_algorithm(&out) {
            Ok(Algorithm::Store) => 0,
            Ok(Algorithm::Rle) => 1,
            Ok(Algorithm::Lzss) => 2,
            Ok(Algorithm::Huffman) => 3,
            Ok(Algorithm::LzssHuffman) => 4,
            other => panic!("compress produced an unreadable container: {other:?}"),
        };
        self.picks[slot] += 1;
        out
    }

    fn decompress(&mut self, rec: &mut Recorder, data: &[u8]) -> Result<Vec<u8>, String> {
        let out = rec.span("codec.decompress", |_| decompress(data)).map_err(|e| e.to_string())?;
        self.decompress_out += out.len() as u64;
        Ok(out)
    }
}

/// A bank site as the replayed agent sees it.
struct ReplayHost<'a> {
    site: &'a str,
    bank: &'a mut BankService,
    params: &'a [(String, Value)],
    emitted: Vec<(String, Value)>,
}

impl Host for ReplayHost<'_> {
    fn invoke(&mut self, service: &str, op: &str, args: &[Value]) -> Result<Value, String> {
        match service {
            "bank" => self.bank.invoke(op, args),
            other => Err(format!("site {} has no service {other:?}", self.site)),
        }
    }

    fn param(&self, name: &str) -> Option<Value> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    }

    fn emit(&mut self, key: &str, value: Value) {
        self.emitted.push((key.to_owned(), value));
    }

    fn site_name(&self) -> &str {
        self.site
    }
}

/// The subscription download the gateway sends for `sub` (its own XML
/// write and compress calls, timed as part of the journey).
fn subscription_body(sub: &Subscription, tally: &mut CodecTally, rec: &mut Recorder) -> Vec<u8> {
    let mut doc = Element::new("subscription")
        .with_attr("id", &sub.code_id)
        .with_attr("secret", &sub.secret)
        .with_attr("gateway", &sub.gateway)
        .with_attr("pubkey-n", sub.public_key.n.to_string())
        .with_attr("pubkey-e", sub.public_key.e.to_string());
    doc.push_child(sub.program.to_xml());
    let xml = rec.span("xml.write", |_| doc.to_document_string());
    tally.compress(rec, xml.as_bytes())
}

/// Replay journey `index` (input `input`, subscription `sub` as stored on
/// the device) through every layer, recording spans into `rec`. Checks
/// that the subscription and the PI survive their round trips and that the
/// replayed result passes the gate.
pub fn replay_journey(
    index: u32,
    input: &JourneyInput,
    sub: &Subscription,
    keys: &KeyPair,
    seed: u64,
    rec: &mut Recorder,
    tally: &mut CodecTally,
) -> Result<(), String> {
    rec.journey = index;
    let body = subscription_body(sub, tally, rec);
    let unpacked =
        rec.span("core.subscribe_unpack", |_| Subscription::from_download(SERVICE, &body))?;
    if unpacked != *sub {
        return Err("subscription changed in its round trip".to_owned());
    }

    // Device: build, write, compress and seal the PI.
    let (packed, envelope) = rec.span("core.pack", |rec| {
        let deploy = deploy_request(input);
        let pi = PackedInformation {
            code_id: sub.code_id.clone(),
            auth_key: UniqueId(sub.code_id.clone()).derive_key(&sub.secret),
            program: sub.program.clone(),
            itinerary: deploy.itinerary,
            params: deploy.params,
            fuel_per_hop: deploy.fuel_per_hop,
        };
        let xml = rec.span("xml.write", |_| pi.to_document_string());
        let compressed = tally.compress(rec, xml.as_bytes());
        let entropy = format!("pda-{}-{}/{seed}/1", input.cell, input.dev);
        let sealed = rec.span("crypto.seal", |_| {
            seal_envelope(&sub.public_key, &compressed, entropy.as_bytes())
        });
        (pi, sealed.bytes)
    });

    // Gateway: open, decompress, parse.
    let pi = rec.span("gateway.unpack", |rec| -> Result<PackedInformation, String> {
        let plain = rec
            .span("crypto.open", |_| open_envelope(&keys.private, &envelope))
            .map_err(|e| e.to_string())?;
        let xml = tally.decompress(rec, &plain)?;
        let text = std::str::from_utf8(&xml).map_err(|e| e.to_string())?;
        rec.span("xml.parse", |_| PackedInformation::from_document_str(text))
    })?;
    if pi != packed {
        return Err("unpacked PI differs from the packed one".to_owned());
    }

    // Gateway: stage the agent classes and parameter document, create the agent.
    let agent_id = format!("ag-{}@{}", input.dev + 1, gateway_name(input.cell));
    let mut files = FileDirectory::new(64 << 20);
    let mut agent = rec.span("gateway.stage", |_| -> Result<MobileAgent, String> {
        files
            .allocate(format!("{agent_id}/classes"), FileKind::AgentClasses, pi.program.to_bytes())
            .map_err(|e| e.to_string())?;
        let mut params_doc = Vec::new();
        for (k, v) in &pi.params {
            params_doc.extend_from_slice(k.as_bytes());
            params_doc.push(b'=');
            params_doc.extend_from_slice(v.render().as_bytes());
            params_doc.push(b'\n');
        }
        files
            .allocate(format!("{agent_id}/params.xml"), FileKind::ParameterDoc, params_doc)
            .map_err(|e| e.to_string())?;
        let mut agent = MobileAgent::new(
            AgentId(agent_id.clone()),
            pi.program.clone(),
            pi.params.clone(),
            Itinerary { sites: pi.itinerary.clone() },
            0,
        );
        agent.fuel_per_hop = pi.fuel_per_hop;
        Ok(agent)
    })?;

    // MAS: each hop decodes the transferred agent and runs it; the return
    // to the origin gateway is one more transfer.
    while let Some(site) = agent.next_site().map(str::to_owned) {
        agent = hop_codec(rec, tally, &agent)?;
        let mut bank = BankService::new(site.as_str()).with_account("alice", FUNDS);
        let mut host =
            ReplayHost { site: &site, bank: &mut bank, params: &agent.params, emitted: Vec::new() };
        let fuel = agent.fuel_per_hop;
        let mut state = std::mem::take(&mut agent.state);
        let outcome = rec.span("vm.exec", |_| run(&agent.program, &mut state, &mut host, fuel));
        let emitted = std::mem::take(&mut host.emitted);
        agent.state = state;
        if outcome != Outcome::Completed {
            return Err(format!("agent stopped at {site}: {outcome:?}"));
        }
        for (key, value) in emitted {
            agent.push_result(&site, &key, value);
        }
        agent.next_hop += 1;
    }
    agent = hop_codec(rec, tally, &agent)?;

    // Gateway: document the result; device: unpack it.
    let body = rec.span("gateway.result_pack", |rec| {
        let doc = ResultDoc::from_agent(&agent);
        let xml = rec.span("xml.write", |_| doc.to_document_string());
        tally.compress(rec, xml.as_bytes())
    });
    let result = rec.span("core.result_unpack", |rec| -> Result<ResultDoc, String> {
        let xml = tally.decompress(rec, &body)?;
        let text = std::str::from_utf8(&xml).map_err(|e| e.to_string())?;
        rec.span("xml.parse", |_| ResultDoc::from_document_str(text))
    })?;
    check_result(input, &result).map_err(|e| format!("replayed result: {e}"))
}

fn hop_codec(
    rec: &mut Recorder,
    tally: &mut CodecTally,
    agent: &MobileAgent,
) -> Result<MobileAgent, String> {
    let (bytes, decoded) = rec.span("mas.hop_codec", |_| {
        let bytes = agent.to_bytes();
        let decoded = MobileAgent::from_bytes(&bytes);
        (bytes.len(), decoded)
    });
    tally.agent_bytes.push(bytes as u64);
    decoded.map_err(|e| e.to_string())
}

/// The gateway key pair of `cell`, as the fleet builder seeded it.
pub fn gateway_keys(seed: u64, cell: usize) -> KeyPair {
    KeyPair::generate(gateway_key_seed(seed, cell))
}
