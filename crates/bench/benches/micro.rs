//! Criterion micro-benchmarks for the PDAgent building blocks: the XML
//! codec, compression, the security pipeline (SEC/µ in DESIGN.md), the
//! agent VM and the PI pack/unpack path. These measure wall-clock cost of
//! the device- and gateway-side CPU work (the simulator measures network
//! time separately).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pdagent_apps::ebank::{ebank_program, transactions_param};
use pdagent_apps::Transaction;
use pdagent_bench::soak::pad_text;
use pdagent_codec::compress::{compress, decompress, Algorithm};
use pdagent_crypto::envelope::{open_envelope, seal_envelope};
use pdagent_crypto::md5::md5;
use pdagent_crypto::rsa::KeyPair;
use pdagent_gateway::pi::PackedInformation;
use pdagent_core::rms::RecordStore;
use pdagent_mas::{AgentId, Itinerary, MobileAgent};
use pdagent_net::link::LinkSpec;
use pdagent_net::message::Message;
use pdagent_net::sim::{Ctx, Node, NodeId, Simulator};
use pdagent_net::time::SimDuration;
use pdagent_vm::{run, AgentState, MapHost, Value};
use pdagent_xml::Element;

fn sample_pi_doc(n_tx: u32) -> String {
    padded_pi_doc(n_tx, None)
}

/// A PI document carrying `n_tx` transactions and, optionally, the user-data
/// pad the soak and the repository benchmark attach.
fn padded_pi_doc(n_tx: u32, pad: Option<String>) -> String {
    let txs: Vec<Transaction> = (0..n_tx)
        .map(|i| Transaction::new("bank-a", "alice", "payee", 1000 + i as i64))
        .collect();
    let mut params = vec![transactions_param(&txs)];
    params.extend(pad.map(|pad| ("pi_pad".to_owned(), Value::Str(pad))));
    let pi = PackedInformation {
        code_id: "ebank@dev#1".into(),
        auth_key: "0123456789abcdef0123456789abcdef".into(),
        program: ebank_program(),
        itinerary: vec!["bank-a".into(), "bank-b".into()],
        params,
        fuel_per_hop: 1_000_000,
    };
    pi.to_document_string()
}

/// SplitMix64 draws in `0..n`, so the word pad needs no dependency.
fn splitmix_below(state: &mut u64, n: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % n
}

/// `len` bytes of words from a small vocabulary: Auto picks LZSS+Huffman.
fn word_pad(len: usize, seed: u64) -> String {
    const VOCABULARY: &str =
        "the payment account transfer balance bank agent device please confirm monthly rent \
        invoice number due before friday and send receipt to my office address \
        for records with reference order of goods delivered last week thank you \
        note that this is a standing instruction from customer service branch settlement";
    let words: Vec<&str> = VOCABULARY.split(' ').collect();
    let mut state = seed;
    let mut out = String::with_capacity(len + 16);
    while out.len() < len {
        if !out.is_empty() {
            out.push_str(if splitmix_below(&mut state, 12) == 0 { ". " } else { " " });
        }
        out.push_str(words[splitmix_below(&mut state, words.len() as u64) as usize]);
    }
    out.truncate(len);
    out
}

fn bench_xml(c: &mut Criterion) {
    let doc = sample_pi_doc(10);
    let mut group = c.benchmark_group("xml");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    group.bench_function("parse_pi_document", |b| {
        b.iter(|| Element::parse_str(std::hint::black_box(&doc)).unwrap())
    });
    let parsed = Element::parse_str(&doc).unwrap();
    group.bench_function("write_pi_document", |b| {
        b.iter(|| std::hint::black_box(&parsed).to_document_string())
    });
    group.finish();
}

fn bench_compression(c: &mut Criterion) {
    let doc = sample_pi_doc(10);
    let bytes = doc.as_bytes();
    let mut group = c.benchmark_group("compression");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    for alg in [Algorithm::Rle, Algorithm::Lzss, Algorithm::Huffman, Algorithm::LzssHuffman] {
        group.bench_with_input(
            BenchmarkId::new("compress", alg.name()),
            &alg,
            |b, &alg| b.iter(|| compress(std::hint::black_box(bytes), alg)),
        );
        let packed = compress(bytes, alg);
        group.bench_with_input(
            BenchmarkId::new("decompress", alg.name()),
            &packed,
            |b, packed| b.iter(|| decompress(std::hint::black_box(packed)).unwrap()),
        );
    }
    // Auto on the 48 KiB PIs the soak and the repository benchmark ship;
    // the small sample PI above under-predicts their cost.
    let pads = [("base64", pad_text(48 * 1024, 1)), ("words", word_pad(48 * 1024, 1))];
    for (content, pad) in pads {
        let doc = padded_pi_doc(4, Some(pad));
        let bytes = doc.as_bytes();
        let id = format!("auto_48k_{content}");
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("compress", &id), bytes, |b, bytes| {
            b.iter(|| compress(std::hint::black_box(bytes), Algorithm::Auto))
        });
        let packed = compress(bytes, Algorithm::Auto);
        group.bench_with_input(BenchmarkId::new("decompress", &id), &packed, |b, packed| {
            b.iter(|| decompress(std::hint::black_box(packed)).unwrap())
        });
    }
    group.finish();
}

fn bench_security(c: &mut Criterion) {
    // SEC/µ: the §3.4 pipeline cost across PI sizes.
    let kp = KeyPair::generate(1);
    let mut group = c.benchmark_group("security");
    for size_kb in [1usize, 4, 16, 64] {
        let payload = vec![0x5au8; size_kb * 1024];
        group.throughput(Throughput::Bytes(payload.len() as u64));
        group.bench_with_input(BenchmarkId::new("md5", size_kb), &payload, |b, p| {
            b.iter(|| md5(std::hint::black_box(p)))
        });
        group.bench_with_input(BenchmarkId::new("seal", size_kb), &payload, |b, p| {
            b.iter(|| seal_envelope(&kp.public, std::hint::black_box(p), b"bench"))
        });
        let sealed = seal_envelope(&kp.public, &payload, b"bench");
        group.bench_with_input(BenchmarkId::new("open", size_kb), &sealed.bytes, |b, s| {
            b.iter(|| open_envelope(&kp.private, std::hint::black_box(s)).unwrap())
        });
    }
    group.finish();
}

fn bench_vm(c: &mut Criterion) {
    let program = ebank_program();
    let txs: Vec<Transaction> = (0..10)
        .map(|i| Transaction::new("bench-site", "alice", "payee", 1000 + i as i64))
        .collect();
    let (pname, pvalue) = transactions_param(&txs);
    c.bench_function("vm/ebank_agent_10tx", |b| {
        b.iter(|| {
            let mut host = MapHost::new("bench-site");
            host.set_param(pname.clone(), pvalue.clone());
            host.set_service("bank", "balance", Value::Int(1_000_000));
            host.set_service("bank", "transfer", Value::Str("rcpt".into()));
            let mut state = AgentState::default();
            run(&program, &mut state, &mut host, 1_000_000)
        })
    });
}

fn bench_pi_roundtrip(c: &mut Criterion) {
    // The full device-side packing path: XML → compress → seal; and the
    // gateway-side unpack: open → decompress → parse.
    let kp = KeyPair::generate(2);
    let doc = sample_pi_doc(10);
    c.bench_function("pi/pack(compress+seal)", |b| {
        b.iter(|| {
            let compressed = compress(std::hint::black_box(doc.as_bytes()), Algorithm::Auto);
            seal_envelope(&kp.public, &compressed, b"bench")
        })
    });
    let compressed = compress(doc.as_bytes(), Algorithm::Auto);
    let sealed = seal_envelope(&kp.public, &compressed, b"bench");
    c.bench_function("pi/unpack(open+decompress+parse)", |b| {
        b.iter(|| {
            let plain = open_envelope(&kp.private, std::hint::black_box(&sealed.bytes)).unwrap();
            let xml = decompress(&plain).unwrap();
            PackedInformation::from_document_str(std::str::from_utf8(&xml).unwrap()).unwrap()
        })
    });
}

fn bench_rms(c: &mut Criterion) {
    c.bench_function("rms/add_get_delete_1k_records", |b| {
        b.iter(|| {
            let mut store = RecordStore::open("bench");
            let mut ids = Vec::with_capacity(1000);
            for i in 0..1000u32 {
                ids.push(store.add_record(&i.to_le_bytes()).unwrap());
            }
            for &id in &ids {
                std::hint::black_box(store.get_record(id).unwrap());
            }
            for &id in &ids {
                store.delete_record(id).unwrap();
            }
        })
    });
    let mut store = RecordStore::open("bench");
    for i in 0..500u32 {
        store.add_record(&[i as u8; 64]).unwrap();
    }
    c.bench_function("rms/snapshot_roundtrip_500x64B", |b| {
        b.iter(|| {
            let bytes = store.to_bytes();
            RecordStore::from_bytes(std::hint::black_box(&bytes)).unwrap()
        })
    });
}

fn bench_agent_transfer(c: &mut Criterion) {
    // The serialization cost the MAS pays per hop.
    let txs: Vec<Transaction> = (0..10)
        .map(|i| Transaction::new("bank-a", "alice", "payee", 1000 + i as i64))
        .collect();
    let mut agent = MobileAgent::new(
        AgentId("bench-agent".into()),
        ebank_program(),
        vec![transactions_param(&txs)],
        Itinerary::new(["bank-a", "bank-b", "bank-c"]),
        0,
    );
    for i in 0..10 {
        agent.push_result("bank-a", "receipt", Value::Str(format!("rcpt-{i}")));
    }
    let bytes = agent.to_bytes();
    let mut group = c.benchmark_group("agent_transfer");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("serialize", |b| b.iter(|| std::hint::black_box(&agent).to_bytes()));
    group.bench_function("deserialize", |b| {
        b.iter(|| MobileAgent::from_bytes(std::hint::black_box(&bytes)).unwrap())
    });
    group.finish();
}

fn bench_program_encodings(c: &mut Criterion) {
    // pdax-1 (verbose XML) vs pdac-1 (binary+base64) encode/decode.
    let program = ebank_program();
    let mut group = c.benchmark_group("program_encoding");
    group.bench_function("verbose_xml_encode", |b| {
        b.iter(|| std::hint::black_box(&program).to_xml().to_document_string())
    });
    let verbose = program.to_xml().to_document_string();
    group.bench_function("verbose_xml_decode", |b| {
        b.iter(|| {
            pdagent_vm::Program::from_xml(
                &Element::parse_str(std::hint::black_box(&verbose)).unwrap(),
            )
            .unwrap()
        })
    });
    group.bench_function("binary_encode", |b| {
        b.iter(|| std::hint::black_box(&program).to_bytes())
    });
    let binary = program.to_bytes();
    group.bench_function("binary_decode", |b| {
        b.iter(|| pdagent_vm::Program::from_bytes(std::hint::black_box(&binary)).unwrap())
    });
    group.finish();
}

fn bench_event_loop(c: &mut Criterion) {
    // Raw simulator event-loop throughput: a single node that re-arms a
    // timer EVENTS times. Measures heap push/pop, the armed-timer set and
    // dispatch — no message payloads at all.
    struct Ticker {
        remaining: u64,
    }
    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_micros(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
        }
    }
    const EVENTS: u64 = 10_000;
    let mut group = c.benchmark_group("sim");
    group.throughput(Throughput::Elements(EVENTS));
    group.bench_function("event_loop_10k_timers", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            sim.add_node(Box::new(Ticker { remaining: EVENTS }));
            std::hint::black_box(sim.run_until_idle())
        })
    });
    group.finish();
}

fn bench_message_hop(c: &mut Criterion) {
    // Message-hop throughput: two nodes ping-pong a 1 KiB body over a LAN
    // link. The responder forwards the received message, so with the
    // zero-copy `Bytes` path every hop reuses one shared allocation; this is
    // the number the §6 performance model in DESIGN.md cites.
    struct Pong;
    impl Node for Pong {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            ctx.send(from, msg);
        }
    }
    struct Ping {
        peer: NodeId,
        remaining: u64,
    }
    impl Node for Ping {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, Message::new("hop", vec![0x5a; 1024]));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(from, msg);
            }
        }
    }
    const HOPS: u64 = 10_000;
    let mut group = c.benchmark_group("sim");
    group.throughput(Throughput::Elements(HOPS));
    group.bench_function("message_hop_10k_x_1KiB", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            let pong = sim.add_node(Box::new(Pong));
            let ping = sim.add_node(Box::new(Ping { peer: pong, remaining: HOPS }));
            sim.connect(ping, pong, LinkSpec::lan());
            std::hint::black_box(sim.run_until_idle())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_xml,
    bench_compression,
    bench_security,
    bench_vm,
    bench_pi_roundtrip,
    bench_rms,
    bench_agent_transfer,
    bench_program_encodings,
    bench_event_loop,
    bench_message_hop
);
criterion_main!(benches);
