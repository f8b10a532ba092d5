//! The three benchmark workloads: what each runs, the simulated
//! outcomes read from its reports, the output checks, and the
//! self-checks that keep each workload the workload it was chosen to be.
//!
//! One *instance* of a workload is a fixed set of independent *units*
//! whose seeds derive from `--seed`: 8 or 24 sessions, or 8 fabric
//! runs. Pooling units keeps the simulated outcomes of one `--seed`
//! close to those of the next, and every instance of one seed repeats
//! exactly. Each unit's report is reduced to a [`Unit`] as soon as the
//! unit ends, so the process holds one report at a time and its peak
//! RSS is the program's, not the benchmark's.

use std::time::Instant;

use gbooster_core::config::{ExecutionMode, OffloadConfig, SessionConfig};
use gbooster_core::fabric::{FabricConfig, FabricReport, SessionManager, TenantSpec};
use gbooster_core::session::{Session, SessionReport};
use gbooster_core::GBoosterError;
use gbooster_sim::device::DeviceSpec;
use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{names, HistogramSnapshot};
use gbooster_workload::games::GameTitle;

use crate::stats::{interpolated_quantile, mean};

/// Sessions per instance of `offload-g1`.
const G1_UNITS: u64 = 8;

/// Sessions per instance of `offload-g5-pool4-lossy`. About 0.9 % of
/// its frames stall past 100 ms, so its p99 sits at the edge of that
/// tail: the instance pools enough frames that the tail's share of one
/// seed stays close to that of the next.
const G5_UNITS: u64 = 24;

/// Simulated length of each session.
const SESSION_SECS: u64 = 30;

/// Fabric runs per instance of the fabric workload. Each run calibrates
/// its titles from its own seed, which sets its wire bytes per frame.
const FABRIC_UNITS: u64 = 8;

/// Simulated length of each fabric run. At a few µs per frame the
/// event loop, not the per-title calibration, dominates its wall time.
pub const FABRIC_SECS: u64 = 60;

/// Offered tenants in the fabric workload.
const FABRIC_TENANTS: usize = 256;

/// Per-tenant frame rate in the fabric workload.
const FABRIC_FPS: f64 = 10.0;

/// The paper's G1 GTA SA result on a Nexus 5 offloaded to a Shield
/// (EXPERIMENTS.md, Fig. 5).
pub const PAPER_G1_FPS: f64 = 37.0;

/// Loss scale of the lossy session workload (1.0 is the nominal link).
const LOSSY_SCALE: f64 = 4.0;

/// The four-node heterogeneous pool shared by the lossy session
/// workload and the fabric.
pub fn pool4() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::nvidia_shield(),
        DeviceSpec::dell_optiplex_9010(),
        DeviceSpec::dell_m4600(),
        DeviceSpec::minix_neo_u1(),
    ]
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// G1 on a Nexus 5, one Shield, nominal link: heavy frames.
    OffloadG1,
    /// G5 on an LG G5, four-node pool, lossy link: light frames,
    /// replication and retransmission.
    OffloadG5Pool4Lossy,
    /// 256 offered tenants over the four-node pool, node 0 drained at
    /// the midpoint, observer on.
    Fabric,
}

/// A session workload's fixed shape: one title on one phone, offloaded
/// to a pool over a link of a given loss scale.
pub struct SessionShape {
    pub title: GameTitle,
    pub device: DeviceSpec,
    pub pool: Vec<DeviceSpec>,
    pub loss_scale: f64,
}

impl SessionShape {
    /// The session's render resolution (the offload default).
    pub fn resolution(&self) -> (u32, u32) {
        OffloadConfig::default().render_resolution
    }

    /// The session config for one seed and simulated length.
    pub fn config(&self, seed: u64, secs: u64) -> SessionConfig {
        SessionConfig::builder(self.title.clone(), self.device.clone())
            .duration_secs(secs)
            .seed(seed)
            .mode(ExecutionMode::Offloaded(OffloadConfig {
                service_devices: self.pool.clone(),
                loss_scale: self.loss_scale,
                ..OffloadConfig::default()
            }))
            .build()
    }
}

/// Output checks: operations attempted and failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Folds another set of checks into this one.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems.iter().cloned());
    }
}

/// A mixing step (SplitMix64), so the units of one `--seed` share no
/// seed with those of a neighbouring `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the benchmark keeps of one unit's report.
pub struct Unit {
    pub frames: u64,
    /// Frame latency, µs: `stage.total` or `fabric.frame_latency`.
    latency: HistogramSnapshot,
    wire_bytes: u64,
    /// The unit's simulated values, bit-exact (and the fabric's SLO
    /// report): what a rerun of the seed must reproduce.
    fingerprint: String,
    checks: Checks,
    /// The workload property this unit no longer has, if any.
    lost_shape: Option<String>,
    kind: UnitKind,
}

enum UnitKind {
    Session {
        median_fps: f64,
        response_ms: f64,
        joules: f64,
        retransmits: u64,
    },
    Fabric {
        tenant_secs: u64,
        sessions_per_node_at_slo: f64,
        offered: usize,
        refused: usize,
    },
}

impl Unit {
    /// Reduces a session report: output checks (consistent replicas,
    /// every issued frame presented in order, no rejected command) and
    /// the workload's shape.
    fn session(w: Workload, r: &SessionReport) -> Unit {
        let mut checks = Checks::default();
        let traces = r.trace.frames();
        let gapless = traces.len() as u64 == r.frames
            && traces.iter().enumerate().all(|(i, f)| f.seq == i as u64);
        let rejected = r.telemetry.counter(names::service::REJECTED_COMMANDS);
        checks.check(
            r.state_consistent && gapless && rejected == 0 && r.frames > 0,
            || {
                format!(
                    "session: consistent={} gapless={gapless} rejected={rejected} frames={}",
                    r.state_consistent, r.frames
                )
            },
        );
        let commands_per_frame =
            r.telemetry.counter(names::forward::COMMANDS) as f64 / r.frames.max(1) as f64;
        let pool = r.telemetry.gauge(names::health::POOL_SIZE);
        let served = r.per_device_requests.iter().filter(|&&n| n > 0).count();
        let lost_shape = match w {
            Workload::OffloadG1 if commands_per_frame < 200.0 => Some(format!(
                "offload-g1 is no longer heavy: {commands_per_frame:.1} commands per frame (< 200)"
            )),
            Workload::OffloadG5Pool4Lossy if pool != 4.0 || served != 4 => Some(format!(
                "offload-g5-pool4-lossy lost replicas: pool size {pool}, {served} of 4 nodes served"
            )),
            _ => None,
        };
        let latency = r
            .telemetry
            .histogram(names::stage::TOTAL)
            .cloned()
            .unwrap_or_default();
        let joules = r.energy.total_joules();
        Unit {
            frames: r.frames,
            fingerprint: format!(
                "{} {:x} {:x} {} {} {:x} {} {}",
                r.frames,
                r.median_fps.to_bits(),
                r.response_time_ms.to_bits(),
                r.uplink_bytes,
                r.downlink_bytes,
                joules.to_bits(),
                latency.count(),
                latency.sum()
            ),
            latency,
            wire_bytes: r.uplink_bytes + r.downlink_bytes,
            checks,
            lost_shape,
            kind: UnitKind::Session {
                median_fps: r.median_fps,
                response_ms: r.response_time_ms,
                joules,
                retransmits: r.telemetry.counter(names::net::RETRANSMITS),
            },
        }
    }

    /// Reduces a fabric report of `secs` simulated seconds: every
    /// admitted tenant gapless, and the workload's shape (a drain
    /// migration, kept traces, TSDB points). Tenants refused admission
    /// are the admission policy at work, not failures.
    fn fabric(r: &FabricReport, secs: u64) -> Unit {
        let mut checks = Checks::default();
        for t in r.tenants.iter().filter(|t| t.admitted) {
            checks.check(t.gapless && t.frames_presented > 0, || {
                format!(
                    "tenant {}: gapless={} presented={}",
                    t.tenant, t.gapless, t.frames_presented
                )
            });
        }
        let drains = r
            .migrations
            .iter()
            .filter(|m| m.reason == "operator_drain")
            .count();
        let kept = r.sampler.as_ref().map_or(0, |s| s.kept());
        let points = r.tsdb.as_ref().map_or(0, |t| t.ingested());
        let lost_shape = (drains == 0 || kept == 0 || points == 0).then(|| {
            format!(
                "fabric workload lost its shape: {drains} drain migrations, {kept} kept \
                 traces, {points} TSDB points (each must be > 0)"
            )
        });
        Unit {
            frames: r.frames_presented,
            latency: r
                .telemetry
                .histogram(names::fabric::FRAME_LATENCY)
                .cloned()
                .unwrap_or_default(),
            wire_bytes: r.pool_uplink_bytes + r.pool_downlink_bytes,
            fingerprint: r.slo_json(),
            checks,
            lost_shape,
            kind: UnitKind::Fabric {
                tenant_secs: r.admitted as u64 * secs,
                sessions_per_node_at_slo: r.sessions_per_node_at_slo,
                offered: r.sessions_offered,
                refused: r.rejected,
            },
        }
    }
}

/// One instance: its units, in seed order.
pub struct Instance {
    pub units: Vec<Unit>,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OffloadG1,
        Workload::OffloadG5Pool4Lossy,
        Workload::Fabric,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OffloadG1 => "offload-g1",
            Workload::OffloadG5Pool4Lossy => "offload-g5-pool4-lossy",
            Workload::Fabric => "fabric-256x4-drain-observed",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The session shape, or `None` for the fabric.
    pub fn session_shape(self) -> Option<SessionShape> {
        match self {
            Workload::OffloadG1 => Some(SessionShape {
                title: GameTitle::g1_gta_san_andreas(),
                device: DeviceSpec::nexus5(),
                pool: vec![DeviceSpec::nvidia_shield()],
                loss_scale: OffloadConfig::default().loss_scale,
            }),
            Workload::OffloadG5Pool4Lossy => Some(SessionShape {
                title: GameTitle::g5_candy_crush(),
                device: DeviceSpec::lg_g5(),
                pool: pool4(),
                loss_scale: LOSSY_SCALE,
            }),
            Workload::Fabric => None,
        }
    }

    /// Simulated seconds of each unit of a full instance.
    pub fn full_secs(self) -> u64 {
        match self {
            Workload::Fabric => FABRIC_SECS,
            _ => SESSION_SECS,
        }
    }

    /// The unit seeds of one instance.
    pub fn unit_seeds(self, seed: u64) -> Vec<u64> {
        let units = match self {
            Workload::OffloadG1 => G1_UNITS,
            Workload::OffloadG5Pool4Lossy => G5_UNITS,
            Workload::Fabric => FABRIC_UNITS,
        };
        (0..units).map(|i| mix(seed ^ mix(i))).collect()
    }

    /// Runs one instance whose units last `secs` simulated seconds.
    ///
    /// # Errors
    ///
    /// Returns the program's error for a unit that fails.
    pub fn run(self, seed: u64, secs: u64) -> Result<Instance, GBoosterError> {
        self.run_timed(seed, secs).map(|(i, _)| i)
    }

    /// [`Self::run`], also returning each unit's host frame rate
    /// (presented frames per wall second of the program's run alone).
    ///
    /// # Errors
    ///
    /// Returns the program's error for a unit that fails.
    pub fn run_timed(self, seed: u64, secs: u64) -> Result<(Instance, Vec<f64>), GBoosterError> {
        let shape = self.session_shape();
        let mut units = Vec::new();
        let mut rates = Vec::new();
        for s in self.unit_seeds(seed) {
            let t = Instant::now();
            let unit = match &shape {
                Some(shape) => {
                    let r = Session::try_run(&shape.config(s, secs))?;
                    let wall = t.elapsed().as_secs_f64();
                    (Unit::session(self, &r), wall)
                }
                None => {
                    let r = SessionManager::run(&fabric_config(s, secs, true))?;
                    let wall = t.elapsed().as_secs_f64();
                    (Unit::fabric(&r, secs), wall)
                }
            };
            rates.push(unit.0.frames as f64 / unit.1);
            units.push(unit.0);
        }
        Ok((Instance { units }, rates))
    }

    /// Asserts the property the workload was chosen for, so that a
    /// refactor which turns it into a different workload fails the
    /// benchmark instead of measuring something else. `instance` must
    /// be a full instance of this workload for `seed`.
    ///
    /// # Errors
    ///
    /// Returns which property no longer holds.
    pub fn self_check(self, seed: u64, instance: &Instance) -> Result<(), String> {
        if let Some(lost) = instance.units.iter().find_map(|u| u.lost_shape.clone()) {
            return Err(lost);
        }
        if self != Workload::OffloadG5Pool4Lossy {
            return Ok(());
        }
        let UnitKind::Session { retransmits, .. } = instance.units[0].kind else {
            return Err("offload-g5-pool4-lossy ran no session".into());
        };
        let nominal = SessionShape {
            loss_scale: OffloadConfig::default().loss_scale,
            ..self.session_shape().expect("a session workload")
        };
        let base = Session::try_run(&nominal.config(self.unit_seeds(seed)[0], self.full_secs()))
            .map_err(|e| format!("nominal-loss reference session failed: {e}"))?;
        let at_nominal = base.telemetry.counter(names::net::RETRANSMITS);
        if retransmits <= at_nominal {
            return Err(format!(
                "offload-g5-pool4-lossy is not lossy: {retransmits} retransmits vs \
                 {at_nominal} at nominal loss"
            ));
        }
        Ok(())
    }
}

/// The fabric workload's config for one unit: 256 uniform tenants at
/// 10 fps over the four-node pool, node 0 drained at the midpoint.
pub fn fabric_config(seed: u64, secs: u64, observe: bool) -> FabricConfig {
    let mut cfg = FabricConfig::uniform(FABRIC_TENANTS, pool4(), seed);
    cfg.duration = SimDuration::from_secs(secs);
    for t in &mut cfg.tenants {
        t.fps = FABRIC_FPS;
    }
    cfg.drain_node(SimTime::from_micros(secs * 500_000), 0);
    if observe {
        cfg.observe_default();
    }
    cfg
}

/// The fabric's view of a session workload: 64 offered tenants of its
/// title over its pool and link, at the fabric's default tenant
/// contract. The session workloads use no fabric, so their
/// `core.fabric.*` rows come from this run.
pub fn capacity_config(shape: &SessionShape, seed: u64, secs: u64) -> FabricConfig {
    let mut cfg = FabricConfig::uniform(64, shape.pool.clone(), seed);
    for t in &mut cfg.tenants {
        *t = TenantSpec {
            title: shape.title.clone(),
            ..t.clone()
        };
    }
    cfg.loss_scale = shape.loss_scale;
    cfg.duration = SimDuration::from_secs(secs);
    cfg
}

/// The simulated outcomes of one instance. Every value repeats exactly
/// for a fixed seed.
pub struct SimOutcome {
    pub frames: u64,
    pub fps: f64,
    pub response_ms: f64,
    pub p99_frame_ms: f64,
    pub wire_bytes_per_frame: f64,
    /// Phone energy per frame; `None` on the fabric, which models no
    /// phone energy.
    pub phone_j_per_frame: Option<f64>,
    /// Fabric only.
    pub sessions_per_node_at_slo: Option<f64>,
}

impl Instance {
    /// Frames presented across the instance (every tenant in the fabric).
    pub fn frames(&self) -> u64 {
        self.units.iter().map(|u| u.frames).sum()
    }

    /// Output checks of every unit.
    pub fn checks(&self) -> Checks {
        let mut c = Checks::default();
        for u in &self.units {
            c.absorb(&u.checks);
        }
        c
    }

    /// Every unit's simulated values and the instance's outcomes,
    /// bit-exact.
    pub fn fingerprint(&self) -> String {
        let sim = self.sim();
        let mut print = format!(
            "{:x} {:x} {:x} {:x}",
            sim.fps.to_bits(),
            sim.response_ms.to_bits(),
            sim.p99_frame_ms.to_bits(),
            sim.wire_bytes_per_frame.to_bits()
        );
        for u in &self.units {
            print.push('\n');
            print.push_str(&u.fingerprint);
        }
        print
    }

    /// Fabric admission over the instance: (tenants offered, refused).
    pub fn admission(&self) -> Option<(usize, usize)> {
        let mut total = None;
        for u in &self.units {
            if let UnitKind::Fabric {
                offered, refused, ..
            } = u.kind
            {
                let (o, r) = total.unwrap_or((0, 0));
                total = Some((o + offered, r + refused));
            }
        }
        total
    }

    /// The `q`-quantile of frame latency pooled over the units, in ms.
    fn latency_ms(&self, q: f64) -> f64 {
        let mut pooled = HistogramSnapshot::default();
        for u in &self.units {
            pooled.merge(&u.latency);
        }
        interpolated_quantile(&pooled, q) / 1e3
    }

    /// The simulated outcomes: sessions report their mean `median_fps`
    /// and Eq. 5 response time; the fabric its presented frames per
    /// admitted tenant-second and its p50 frame latency.
    pub fn sim(&self) -> SimOutcome {
        let frames = self.frames().max(1) as f64;
        let wire = self.units.iter().map(|u| u.wire_bytes).sum::<u64>() as f64 / frames;
        let mut fps = Vec::new();
        let mut response = Vec::new();
        let mut joules = 0.0;
        let mut tenant_secs = 0;
        let mut per_node = Vec::new();
        for u in &self.units {
            match u.kind {
                UnitKind::Session {
                    median_fps,
                    response_ms,
                    joules: j,
                    ..
                } => {
                    fps.push(median_fps);
                    response.push(response_ms);
                    joules += j;
                }
                UnitKind::Fabric {
                    tenant_secs: s,
                    sessions_per_node_at_slo,
                    ..
                } => {
                    tenant_secs += s;
                    per_node.push(sessions_per_node_at_slo);
                }
            }
        }
        let fabric = tenant_secs > 0;
        SimOutcome {
            frames: self.frames(),
            fps: if fabric {
                frames / tenant_secs as f64
            } else {
                mean(&fps)
            },
            response_ms: if fabric {
                self.latency_ms(0.50)
            } else {
                mean(&response)
            },
            p99_frame_ms: self.latency_ms(0.99),
            wire_bytes_per_frame: wire,
            phone_j_per_frame: (!fabric).then(|| joules / frames),
            sessions_per_node_at_slo: fabric.then(|| mean(&per_node)),
        }
    }
}
