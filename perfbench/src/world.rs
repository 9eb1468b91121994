//! Builds a fleet of PDAgent cells from the platform's public constructors,
//! runs it on the sharded simulator and harvests what each journey produced.
//!
//! A cell is a central server, a gateway, two bank MAS sites and its
//! devices. With the ops planes on, each cell also runs an SLO monitor
//! scraping its gateway and sites, and shard 0 hosts the federation scraper
//! (scraping every monitor over the WAN) and the paging gateway the
//! monitors and the fleet rules page. Those WAN links are the only
//! cross-shard traffic.

use std::sync::Mutex;
use std::time::Instant;

use pdagent_apps::ebank::ebank_program;
use pdagent_apps::BankService;
use pdagent_bench::shard::ShardedSim;
use pdagent_core::shard::ShardPlan;
use pdagent_core::{
    DeployRequest, DeployTiming, DeviceCommand, DeviceConfig, DeviceEvent, DeviceNode, Subscription,
};
use pdagent_gateway::central::{CentralServer, GatewayEntry};
use pdagent_gateway::pi::ResultDoc;
use pdagent_gateway::server::{GatewayConfig, GatewayNode};
use pdagent_mas::server::SiteDirectory;
use pdagent_mas::MasNode;
use pdagent_net::federation::{default_federation_rules, FederationScraper, FederationSpec};
use pdagent_net::link::LinkSpec;
use pdagent_net::paging::{PageReceiver, PagingGateway, Route, RoutePolicy, Severity};
use pdagent_net::sim::{NodeId, Simulator};
use pdagent_net::slo::{MonitorSpec, SloMonitor, SloRule, STAGE_SCRAPE_RTT};
use pdagent_net::time::SimDuration;

use crate::inputs::{JourneyInput, Workload, BANKS, FUNDS};

/// The service every device subscribes to and deploys.
pub const SERVICE: &str = "ebank";

// Global labels (below one cell stride).
const FED_LABEL: u64 = 1;
const PAGER_LABEL: u64 = 2;
const ONCALL_LABEL: u64 = 3;

// Node indices within a cell's label block.
const J_CENTRAL: usize = 0;
const J_GATEWAY: usize = 1;
const J_SITE_A: usize = 2;
const J_SITE_B: usize = 3;
const J_MONITOR: usize = 4;
const J_DEVICE0: usize = 5;

/// The gateway key seed of a cell: the benchmark regenerates the key pair
/// from it to open envelopes when it replays a journey.
pub fn gateway_key_seed(seed: u64, cell: usize) -> u64 {
    seed.wrapping_mul(31).wrapping_add(1000 + cell as u64)
}

/// Name of a cell's gateway.
pub fn gateway_name(cell: usize) -> String {
    format!("gw-{cell}")
}

/// What a device asks the platform to deploy for journey `j`.
pub fn deploy_request(j: &JourneyInput) -> DeployRequest {
    DeployRequest::new(SERVICE, j.params.clone(), j.itinerary.clone())
}

/// SLO rules each cell monitor evaluates against its gateway and sites.
fn ops_rules() -> Vec<SloRule> {
    vec![
        SloRule::p99("scrape-latency-p99", STAGE_SCRAPE_RTT, 1_000_000.0),
        SloRule::error_ratio("gateway-error-ratio", "http.gave_up", "msgs_sent", 0.01),
        SloRule::gauge("mas-occupancy", "mas.resident_agents", 64.0),
    ]
}

struct Cell {
    shard: usize,
    gateway: NodeId,
    devices: Vec<NodeId>,
    monitor: Option<NodeId>,
}

/// A built fleet, ready to run.
pub struct World {
    engine: ShardedSim,
    cells: Vec<Cell>,
    fed: Option<NodeId>,
}

/// Build `w`'s fleet for `inputs`. `ops` adds the monitors, federation and
/// paging.
pub fn build(w: &Workload, inputs: &[JourneyInput], seed: u64, ops: bool) -> World {
    let plan = ShardPlan::new(w.cells, w.shards);
    let mut shards = Vec::with_capacity(plan.shards());
    let mut cells: Vec<Option<Cell>> = (0..w.cells).map(|_| None).collect();
    let (mut fed_home, mut pager_home) = (None, None);
    for s in 0..plan.shards() {
        let mut sim = Simulator::new(seed);
        sim.set_wire_mtu(Some(256));
        let pager =
            ops.then(|| {
                if s == 0 {
                    let oncall =
                        sim.add_node(Box::new(PageReceiver::new(Some(SimDuration::from_secs(2)))));
                    sim.set_label(oncall, ONCALL_LABEL);
                    let pg = sim.add_node(Box::new(PagingGateway::new(RoutePolicy::new(vec![
                        Route::new(Severity::Critical, oncall),
                    ]))));
                    sim.set_label(pg, PAGER_LABEL);
                    sim.connect(pg, oncall, LinkSpec::wired_internet());
                    pager_home = Some(pg);
                    pg
                } else {
                    sim.add_remote(PAGER_LABEL)
                }
            });
        for cell in plan.cells_of(s) {
            let journeys = &inputs[cell * w.devices_per_cell..(cell + 1) * w.devices_per_cell];
            cells[cell] = Some(build_cell(&mut sim, &plan, seed, cell, s, journeys, pager));
        }
        if let Some(pager) = pager {
            if s == 0 {
                let targets: Vec<(NodeId, String)> = (0..w.cells)
                    .map(|cell| {
                        let mon = match &cells[cell] {
                            Some(c) if c.shard == 0 => c.monitor.expect("ops cell has a monitor"),
                            _ => sim.add_remote(plan.label(cell, J_MONITOR)),
                        };
                        (mon, format!("cell-{cell}"))
                    })
                    .collect();
                let spec = FederationSpec {
                    rules: default_federation_rules(),
                    pager: Some(pager),
                    ..FederationSpec::default()
                };
                let fed = sim.add_node(Box::new(FederationScraper::new(spec, targets.clone())));
                sim.set_label(fed, FED_LABEL);
                for (mon, _) in &targets {
                    sim.connect(fed, *mon, LinkSpec::wan_backbone());
                }
                sim.connect(fed, pager, LinkSpec::wired_internet());
                fed_home = Some(fed);
            } else {
                let fed_ph = sim.add_remote(FED_LABEL);
                for cell in plan.cells_of(s) {
                    let mon = cells[cell].as_ref().and_then(|c| c.monitor);
                    sim.connect(
                        mon.expect("ops cell has a monitor"),
                        fed_ph,
                        LinkSpec::wan_backbone(),
                    );
                }
            }
        }
        shards.push(sim);
    }
    let cells: Vec<Cell> = cells.into_iter().map(|c| c.expect("every cell built")).collect();
    let mut engine = ShardedSim::new(shards, LinkSpec::wan_backbone().base_latency);
    if let (Some(fed), Some(pager)) = (fed_home, pager_home) {
        engine.export(0, fed);
        engine.export(0, pager);
        for c in &cells {
            engine.export(c.shard, c.monitor.expect("ops cell has a monitor"));
        }
    }
    World { engine, cells, fed: fed_home }
}

fn bank_site(name: &str, directory: &SiteDirectory) -> MasNode {
    let mut site = MasNode::new(name.to_owned(), directory.clone());
    site.register_service("bank", Box::new(BankService::new(name).with_account("alice", FUNDS)));
    site
}

fn build_cell(
    sim: &mut Simulator,
    plan: &ShardPlan,
    seed: u64,
    cell: usize,
    shard: usize,
    journeys: &[JourneyInput],
    pager: Option<NodeId>,
) -> Cell {
    let wireless = LinkSpec::wireless_gprs();
    let wired = LinkSpec::wired_internet();
    let central = sim.add_node(Box::new(CentralServer::new(Vec::new())));
    // Node ids are dense in insertion order: gateway, then the two sites.
    let mut directory = SiteDirectory::new();
    directory.insert(BANKS[0], central + 2);
    directory.insert(BANKS[1], central + 3);
    let mut gw = GatewayNode::new(
        GatewayConfig::new(gateway_name(cell), gateway_key_seed(seed, cell)),
        directory.clone(),
    );
    gw.publish(SERVICE, ebank_program());
    let gateway = sim.add_node(Box::new(gw));
    let site_a = sim.add_node(Box::new(bank_site(BANKS[0], &directory)));
    let site_b = sim.add_node(Box::new(bank_site(BANKS[1], &directory)));
    assert_eq!((gateway, site_a, site_b), (central + 1, central + 2, central + 3));
    for (node, j) in
        [(central, J_CENTRAL), (gateway, J_GATEWAY), (site_a, J_SITE_A), (site_b, J_SITE_B)]
    {
        sim.set_label(node, plan.label(cell, j));
    }
    let backbone = [central, gateway, site_a, site_b];
    for (i, &a) in backbone.iter().enumerate() {
        for &b in &backbone[i + 1..] {
            sim.connect(a, b, wired.clone());
        }
    }

    let entries = vec![GatewayEntry { name: gateway_name(cell), node: gateway }];
    let devices = journeys
        .iter()
        .map(|j| {
            let mut cfg = DeviceConfig::new(format!("pda-{cell}-{}", j.dev));
            cfg.central_server = Some(central);
            cfg.gateways = entries.clone();
            cfg.entropy_seed = seed;
            let commands = vec![
                DeviceCommand::Wait(j.stagger),
                DeviceCommand::Subscribe { service: SERVICE.to_owned() },
                DeviceCommand::Deploy(deploy_request(j)),
            ];
            let dev = sim.add_node(Box::new(DeviceNode::new(cfg, commands)));
            sim.set_label(dev, plan.label(cell, J_DEVICE0 + j.dev));
            sim.connect(dev, central, wireless.clone());
            sim.connect(dev, gateway, wireless.clone());
            dev
        })
        .collect();

    let monitor = pager.map(|pager| {
        let spec = MonitorSpec {
            rules: ops_rules(),
            // Staggered cadences so cells do not scrape in lockstep.
            cadence: SimDuration::from_millis(5_000 + 41 * cell as u64),
            ..MonitorSpec::default()
        };
        let targets = vec![
            (gateway, gateway_name(cell)),
            (site_a, format!("mas-a-{cell}")),
            (site_b, format!("mas-b-{cell}")),
        ];
        let mon = sim.add_node(Box::new(
            SloMonitor::new(spec, targets).with_instance(format!("cell-{cell}")).with_pager(pager),
        ));
        sim.set_label(mon, plan.label(cell, J_MONITOR));
        for target in [gateway, site_a, site_b] {
            sim.connect(mon, target, wired.clone());
        }
        sim.connect(mon, pager, LinkSpec::wan_backbone());
        mon
    });
    Cell { shard, gateway, devices, monitor }
}

/// Per-epoch readings of the sharded engine, taken at every barrier.
#[derive(Debug, Default)]
pub struct EpochProbe {
    last: Vec<u64>,
    last_at: Option<Instant>,
    /// Shards whose `events_processed` advanced, per epoch.
    pub active: Vec<u32>,
    /// Max ÷ mean events per shard, per epoch.
    pub imbalance: Vec<f64>,
    /// Wall time of each epoch, µs.
    pub epoch_us: Vec<f64>,
}

impl EpochProbe {
    fn observe(&mut self, counts: Vec<u64>, now: Instant) {
        if let Some(at) = self.last_at {
            let deltas: Vec<u64> = counts.iter().zip(&self.last).map(|(c, l)| c - l).collect();
            let total: u64 = deltas.iter().sum();
            if total > 0 {
                let max = *deltas.iter().max().expect("at least one shard");
                self.active.push(deltas.iter().filter(|&&d| d > 0).count() as u32);
                self.imbalance.push(max as f64 * deltas.len() as f64 / total as f64);
                self.epoch_us.push(now.duration_since(at).as_secs_f64() * 1e6);
            }
        }
        self.last = counts;
        self.last_at = Some(now);
    }
}

/// What the fleet produced, read after the run.
#[derive(Debug)]
pub struct Harvest {
    /// One entry per journey, in input order.
    pub journeys: Vec<Journey>,
    /// Simulator events processed.
    pub events: u64,
    /// Largest event-queue high-water mark over the shards.
    pub peak_queue: usize,
    /// HTTP retransmissions over every node.
    pub http_retransmits: u64,
    /// Requests the gateways refused (bad envelope, unauthorized, disk full).
    pub gateway_rejects: u64,
    /// Successful scrapes by the cell monitors and the federation scraper.
    pub scrapes: u64,
    /// Bytes the federation scraper pulled.
    pub federation_bytes: u64,
    /// Epoch rounds the sharded engine ran.
    pub epochs: u64,
}

/// One device's journey as the platform reported it.
#[derive(Debug, Clone)]
pub struct Journey {
    /// Timing record of the completed deployment.
    pub timing: Option<DeployTiming>,
    /// The collected result document.
    pub result: Option<ResultDoc>,
    /// The subscription stored in the device database.
    pub subscription: Option<Subscription>,
    /// Error events the device reported.
    pub errors: Vec<String>,
}

impl World {
    /// Run every shard until the fleet drains. With a probe, read the
    /// engine at every epoch barrier.
    pub fn run(&mut self, probe: Option<&mut EpochProbe>) {
        match probe {
            None => self.engine.run_until_idle(),
            Some(p) => {
                // Epochs are counted per run: forget the previous run's
                // totals, which the new shards start below.
                p.last.clear();
                p.last_at = None;
                self.engine.run_until_idle_with(&mut |_, slots: &[Mutex<Simulator>]| {
                    let counts = slots
                        .iter()
                        .map(|s| s.lock().expect("shard lock").events_processed())
                        .collect();
                    p.observe(counts, Instant::now());
                });
                // The last epoch ends after the final barrier.
                let counts =
                    (0..self.engine.shard_count()).map(|i| self.engine.shard(i).events_processed());
                p.observe(counts.collect(), Instant::now());
            }
        }
    }

    /// Read every journey and the fleet counters.
    pub fn harvest(&self) -> Harvest {
        let mut journeys = Vec::new();
        let (mut rejects, mut scrapes, mut federation_bytes) = (0u64, 0u64, 0u64);
        for c in &self.cells {
            let sim = self.engine.shard(c.shard);
            for &dev in &c.devices {
                let node = sim.node_ref::<DeviceNode>(dev).expect("device node");
                let result = node.events.iter().find_map(|e| match e {
                    DeviceEvent::ResultCollected { result, .. } => Some(result.clone()),
                    _ => None,
                });
                let errors = node
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        DeviceEvent::Error { context, detail } => {
                            Some(format!("{context}: {detail}"))
                        }
                        _ => None,
                    })
                    .collect();
                journeys.push(Journey {
                    timing: node.timings.first().cloned(),
                    result,
                    subscription: node.db.subscription(SERVICE),
                    errors,
                });
            }
            let gw = sim.metrics(c.gateway);
            rejects += ["gateway.bad_envelopes", "gateway.unauthorized", "gateway.disk_full"]
                .iter()
                .map(|k| gw.counter(k) as u64)
                .sum::<u64>();
            if let Some(mon) = c.monitor {
                scrapes += sim.node_ref::<SloMonitor>(mon).expect("monitor node").scrapes_ok;
            }
        }
        if let Some(fed) = self.fed {
            let f = self.engine.shard(0).node_ref::<FederationScraper>(fed).expect("scraper");
            scrapes += f.scrapes_ok;
            federation_bytes = f.scraped_bytes;
        }
        let shards = (0..self.engine.shard_count()).map(|i| self.engine.shard(i));
        Harvest {
            journeys,
            events: self.engine.events_processed(),
            peak_queue: self.engine.peak_queue_depth(),
            http_retransmits: shards.map(|s| s.counter_total("http.retransmits") as u64).sum(),
            gateway_rejects: rejects,
            scrapes,
            federation_bytes,
            epochs: self.engine.epochs(),
        }
    }
}
