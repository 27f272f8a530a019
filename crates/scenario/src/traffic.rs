//! The ISP border-telemetry simulation.
//!
//! Every tick, the Eyeball ISP receives (a) each CDN's baseline traffic and
//! (b) its share of the update flash crowd, spread across the server
//! addresses that CDN currently exposes. Each per-server flow is routed
//! over the valley-free AS path, lands on a concrete peering link (parallel
//! links fill up in order — the saturation mechanism of §5.4), is counted
//! exactly by SNMP, and sampled into NetFlow v5 records. The analysis crate
//! then re-runs the paper's §5 pipeline over these artifacts.
//!
//! The run splits into two phases on the deterministic parallel engine.
//! Phase A (serial, per tick) routes flows onto links: parallel links
//! fill *in order*, so placement inherently depends on the sequence of
//! earlier flows and stays single-threaded. Phase B (sharded) does the
//! per-flow work that is independent given a placement — chunking,
//! NetFlow sampling, export-loss draws, record construction — batched
//! across [`TRAFFIC_BATCH_TICKS`] ticks per pool dispatch so the dispatch
//! cost amortizes, and merged in canonical (tick-major) flow order, so
//! the record stream is bit-identical for any thread count and batch
//! size.

use crate::classes::CdnClass;
use crate::config::{LinkSelection, ScenarioConfig};
use crate::loads::update_loads;
use crate::params;
use crate::world::World;
use mcdn_cdn::site::fnv64;
use mcdn_geo::{Continent, Duration, Region, SimTime};
use mcdn_intern::FnvBuildHasher;
use mcdn_isp::netflow::make_record;
use mcdn_isp::{FlowTable, Sampler, SnmpCounters};
use mcdn_netsim::{AsId, LinkId, Router};
use mcdn_workload::diurnal;
use metacdn::CdnKind;
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::Range;

/// Output of the traffic collection window.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficResult {
    /// Sampled NetFlow records with their bin and ingress link.
    pub flows: FlowTable,
    /// Exact SNMP octet counters per link and poll.
    pub snmp: SnmpCounters,
    /// Bytes that exceeded total capacity of a handover's links (dropped).
    pub dropped_bytes: u64,
    /// The sampling configuration used.
    pub sampling: u32,
    /// Sampled NetFlow records lost between exporter and collector
    /// (injected by the scenario's fault profile; 0 without faults).
    pub export_losses: u64,
    /// Per-link SNMP poll cycles missed (injected by the fault profile;
    /// 0 without faults). The counters stay monotonic, so the next
    /// successful poll's delta covers each gap.
    pub polls_missed: u64,
}

/// One logical flow offered to the border in a tick.
struct Offered {
    src: Ipv4Addr,
    bytes: f64,
}

/// Spread `total_bytes` across up to `n` addresses of `pool` into `out`,
/// rotating the window by tick so the whole pool carries traffic over time.
fn spread(out: &mut Vec<Offered>, pool: &[Ipv4Addr], n: usize, total_bytes: f64, tick_salt: u64) {
    if pool.is_empty() || total_bytes <= 0.0 {
        return;
    }
    let n = n.min(pool.len());
    let start = (fnv64(&tick_salt.to_be_bytes()) as usize) % pool.len();
    let bytes = total_bytes / n as f64;
    out.extend((0..n).map(|j| Offered { src: pool[(start + j) % pool.len()], bytes }));
}

/// A flow with its link placement decided — the input to the
/// embarrassingly-parallel phase. Carries its tick (`t`) so flows from
/// several ticks can ride one pool dispatch. `landed` indexes the batch's
/// landed-link arena.
struct RoutedFlow {
    src: Ipv4Addr,
    src_as: AsId,
    landed: Range<usize>,
    t: SimTime,
}

/// Each source AS's handover links into the eyeball ISP, resolved on
/// first use and kept for the run: the topology is frozen, so a source
/// AS's path, its handover AS and that AS's parallel links never change.
struct HandoverRoutes<'w> {
    world: &'w World,
    tick: Duration,
    router: Router,
    /// Per resolved source AS: its handover links sorted by id, each with
    /// its capacity in bytes per tick; `None` when the AS has no
    /// valley-free path to the ISP.
    of_as: HashMap<AsId, Option<Vec<(LinkId, u64)>>, FnvBuildHasher>,
}

impl<'w> HandoverRoutes<'w> {
    fn new(world: &'w World, tick: Duration) -> HandoverRoutes<'w> {
        HandoverRoutes { world, tick, router: Router::new(), of_as: HashMap::default() }
    }

    /// The handover links of `src_as`, or `None` when it cannot reach
    /// the ISP.
    fn links(&mut self, src_as: AsId) -> Option<&[(LinkId, u64)]> {
        let (topo, tick, router) = (&self.world.topo, self.tick, &mut self.router);
        self.of_as
            .entry(src_as)
            .or_insert_with(|| {
                let path = router.path(topo, src_as, params::EYEBALL_AS)?;
                let handover = Router::handover(&path).unwrap_or(src_as);
                let mut links: Vec<(LinkId, u64)> = topo
                    .links_between(handover, params::EYEBALL_AS)
                    .iter()
                    .map(|l| (l.id, (l.capacity_bps * tick.as_secs() as f64 / 8.0) as u64))
                    .collect();
                links.sort_by_key(|(id, _)| *id);
                Some(links)
            })
            .as_deref()
    }
}

/// Ticks whose routed flows are batched into one phase-B pool dispatch.
///
/// A single tick's record building is a few hundred microseconds of work
/// — less than the cost of waking the pool for it — which is why the
/// per-tick engine scaled *negatively*. Batching 8 ticks lifts each
/// dispatch above the ~2 ms amortization target while leaving the output
/// untouched: every per-flow decision (chunking, sampler draw,
/// export-loss draw, record fields) depends only on the flow itself and
/// its own tick, and the batch preserves tick-major flow order, so the
/// record stream is bit-identical to per-tick dispatch for any batch
/// size and any thread count.
pub const TRAFFIC_BATCH_TICKS: usize = 8;

/// Runs the border telemetry over `cfg`'s traffic window on `threads`
/// workers (0 means [`mcdn_exec::thread_count()`]; the `MCDN_THREADS`
/// environment variable overrides). The result is identical for any
/// thread count. Beside it comes the wall-clock time of every phase-B
/// shard execution, dispatch-major in canonical shard order: side-band
/// telemetry that never feeds back into the result.
pub fn run_traffic(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (TrafficResult, Vec<std::time::Duration>) {
    let threads = crate::dnscampaign::resolve_threads(threads);
    let mut snmp = SnmpCounters::new();
    let sampler = Sampler::new(cfg.netflow_sampling);
    let mut flows = FlowTable::new();
    let mut dropped = 0u64;
    let mut export_losses = 0u64;
    let mut polls_missed = 0u64;
    let mut walls = Vec::new();
    // Telemetry faults draw from their own seed stream so DNS-side and
    // traffic-side fault patterns are independent.
    let profile = cfg.faults.with_seed(cfg.faults.seed ^ 0x7E1E);
    let tick = cfg.traffic_tick;
    let eyeball = params::EYEBALL_AS;
    let mut routes = HandoverRoutes::new(world, tick);
    let release = params::release();
    // The topology is frozen for the whole run: compile the RIB into its
    // flat binary-search form once, and look each source address up once.
    let rib = world.topo.compiled_rib();
    let mut origin_of: HashMap<Ipv4Addr, Option<AsId>, FnvBuildHasher> = HashMap::default();
    // Routed flows accumulate here across ticks until a batch is big
    // enough to amortize a pool dispatch (see [`TRAFFIC_BATCH_TICKS`]);
    // their landed (link, bytes) pairs share one arena.
    mcdn_exec::warm(threads);
    let mut batch: Vec<RoutedFlow> = Vec::new();
    let mut landed: Vec<(LinkId, u64)> = Vec::new();
    let mut ticks_in_batch = 0usize;
    // Bytes placed on each link this tick, indexed by link id, and the
    // links placed on so far this tick.
    let mut link_used: Vec<u64> = vec![0; world.topo.links().len()];
    let mut touched: Vec<LinkId> = Vec::new();
    let mut offered: Vec<Offered> = Vec::new();
    let prefill_pool = ll_a_side_pool();

    let mut t = cfg.traffic_start;
    while t < cfg.traffic_end {
        update_loads(world, t);
        let eff = world.state.effective_share(Region::Eu, t);
        let eff_of = |k: CdnKind| eff.iter().find(|(x, _)| *x == k).map(|(_, p)| *p).unwrap_or(0.0);
        let d_isp = mcdn_workload::demand_bps(&world.adoption, Continent::Europe, t)
            * params::ISP_SHARE_OF_EU;
        let day_factor = diurnal(Continent::Europe, t, 0.45);
        let tick_bytes = |bps: f64| bps * tick.as_secs() as f64 / 8.0;

        offered.clear();
        for (kind, class) in [
            (CdnKind::Apple, CdnClass::Apple),
            (CdnKind::Akamai, CdnClass::Akamai),
            (CdnKind::Limelight, CdnClass::Limelight),
        ] {
            let update_bps = eff_of(kind) * d_isp;
            let base_bps = params::baseline_peak_bps(class) * day_factor / 1.45;
            // Baseline (non-update) traffic flows from each CDN's *stable*
            // serving footprint; only the flash-crowd update traffic is
            // spread over the load-widened pool — surge caches are brought
            // up for the event, not for everyday content.
            let (stable_pool, update_pool): (Cow<[Ipv4Addr]>, Cow<[Ipv4Addr]>) = match kind {
                CdnKind::Apple => {
                    let vips = &world.apple_isp_vips[..];
                    (Cow::Borrowed(vips), Cow::Borrowed(vips))
                }
                CdnKind::Akamai => {
                    // Akamai's widened pool (surge + off-net) serves only
                    // once the a1015 event map is live — before that its
                    // serving footprint is what the baseline map exposes.
                    let load = world.state.cdn_load(CdnKind::Akamai, Region::Eu);
                    let serving_load = if world.state.a1015_active(Region::Eu, t) {
                        // The pre-provisioned event map serves from the
                        // full ramp while live (mirrors the DNS policy).
                        load.max(0.8)
                    } else {
                        load.min(0.5)
                    };
                    (
                        world.akamai.exposed(Region::Eu, 0.0).into(),
                        world.akamai.exposed(Region::Eu, serving_load).into(),
                    )
                }
                CdnKind::Limelight => {
                    let load = world.state.cdn_load(CdnKind::Limelight, Region::Eu);
                    (
                        world.limelight.exposed(Region::Eu, 0.0).into(),
                        world.limelight.exposed(Region::Eu, load).into(),
                    )
                }
                CdnKind::Level3 => (Cow::default(), Cow::default()),
            };
            spread(
                &mut offered,
                &stable_pool,
                cfg.flows_per_cdn,
                tick_bytes(base_bps),
                t.as_secs() ^ kind as u64,
            );
            spread(
                &mut offered,
                &update_pool,
                cfg.flows_per_cdn,
                tick_bytes(update_bps),
                t.as_secs() ^ kind as u64 ^ 0x5EED,
            );
        }

        // Limelight pre-fill (the AS-A spike of Sep 19): cache-fill traffic
        // from the A-side caches during the first hours after release.
        let prefill_end = release + mcdn_geo::Duration::hours(params::PREFILL_HOURS);
        if t >= release && t < prefill_end {
            spread(
                &mut offered,
                &prefill_pool,
                prefill_pool.len(),
                tick_bytes(params::PREFILL_FRACTION * d_isp),
                t.as_secs() ^ 0xF111,
            );
        }

        // Phase A (serial): route every offered flow onto a concrete
        // ingress link. Parallel links fill in order — a flow's placement
        // depends on how full earlier flows left each link, so this phase
        // cannot shard. SNMP octets are exact per-link sums, accounted
        // once per link from the tick's fill.
        for flow in &offered {
            let origin =
                *origin_of.entry(flow.src).or_insert_with(|| rib.lookup(flow.src).map(|(_, a)| a));
            let Some(src_as) = origin else { continue };
            let Some(links) = routes.links(src_as) else { continue };
            let mut remaining = flow.bytes as u64;
            // Under ECMP this flow's hash picks its primary link; the
            // fill loop then only spills on saturation, in id order from
            // there.
            let pick = if cfg.link_selection == LinkSelection::Ecmp && links.len() > 1 {
                (fnv64(&flow.src.octets()) % links.len() as u64) as usize
            } else {
                0
            };
            let start = landed.len();
            for i in 0..links.len() {
                if remaining == 0 {
                    break;
                }
                let (link_id, cap_bytes) = links[(pick + i) % links.len()];
                let used = &mut link_used[link_id.0 as usize];
                let take = remaining.min(cap_bytes.saturating_sub(*used));
                if take > 0 {
                    if *used == 0 {
                        touched.push(link_id);
                    }
                    *used += take;
                    landed.push((link_id, take));
                    remaining -= take;
                }
            }
            dropped += remaining;
            batch.push(RoutedFlow { src: flow.src, src_as, landed: start..landed.len(), t });
        }
        for link_id in touched.drain(..) {
            snmp.account(link_id, std::mem::take(&mut link_used[link_id.0 as usize]));
        }
        snmp.poll_filtered(t, |link| {
            if profile.snmp_poll_missed(link.0 as u64, t) {
                polls_missed += 1;
                false
            } else {
                true
            }
        });
        ticks_in_batch += 1;
        t += tick;
        if ticks_in_batch < TRAFFIC_BATCH_TICKS && t < cfg.traffic_end {
            continue; // keep filling the batch
        }
        // Phase B (sharded, batched): given the placements, each flow's
        // chunking, sampling, export-loss draw, and record construction
        // depend only on that flow and its own tick — shard the whole
        // batch and concatenate the per-shard outputs, which preserves
        // tick-major flow order, so the record stream is bit-identical to
        // a per-tick (or serial) sweep.
        let (partials, shard_walls) = mcdn_exec::shard_map(
            &mut batch,
            threads,
            |_shard_idx, shard| {
                let mut shard_flows = Vec::new();
                let mut shard_losses = 0u64;
                for flow in shard.iter() {
                    // NetFlow v5 byte counters are 32-bit; routers split
                    // long-lived flows into multiple records (active timeout).
                    // Chunk so the *sampled* count (true/1000) always fits.
                    const MAX_FLOW_BYTES: u64 = 2_000_000_000_000;
                    for &(link_id, bytes) in &landed[flow.landed.clone()] {
                        let mut left = bytes;
                        let mut chunk_i = 0u8;
                        while left > 0 {
                            let chunk = left.min(MAX_FLOW_BYTES);
                            // Subscribers are spread over the ISP's prefix; each
                            // chunk goes to a different one (distinct flow keys).
                            let dst = Ipv4Addr::new(
                                84,
                                17,
                                (fnv64(&flow.src.octets()) % 200) as u8,
                                20u8.wrapping_add(chunk_i),
                            );
                            if let Some(sampled) = sampler.sample(chunk, (flow.src, dst, flow.t)) {
                                let mut key = [0u8; 9];
                                key[..4].copy_from_slice(&flow.src.octets());
                                key[4..8].copy_from_slice(&dst.octets());
                                key[8] = chunk_i;
                                if profile.netflow_export_lost(link_id.0 as u64, fnv64(&key), flow.t)
                                {
                                    // The exporter sampled the packet but the
                                    // record never reached the collector.
                                    shard_losses += 1;
                                } else {
                                    let rec = make_record(
                                        flow.src,
                                        dst,
                                        (link_id.0 & 0xFFFF) as u16,
                                        sampled,
                                        flow.src_as,
                                        eyeball,
                                    );
                                    shard_flows.push((flow.t, link_id, rec));
                                }
                            }
                            left -= chunk;
                            chunk_i = chunk_i.wrapping_add(1);
                        }
                    }
                }
                (shard_flows, shard_losses)
            },
        )
        .unwrap_or_else(|e| panic!("traffic phase B failed: {e}"));
        walls.extend(shard_walls);
        for (shard_flows, shard_losses) in partials {
            for (t, link_id, rec) in shard_flows {
                flows.push(t, link_id, rec);
            }
            export_losses += shard_losses;
        }
        batch.clear();
        landed.clear();
        ticks_in_batch = 0;
    }
    let result = TrafficResult {
        flows,
        snmp,
        dropped_bytes: dropped,
        sampling: cfg.netflow_sampling,
        export_losses,
        polls_missed,
    };
    (result, walls)
}

/// The Limelight A-side cache addresses used for pre-fill injection.
fn ll_a_side_pool() -> Vec<Ipv4Addr> {
    let (ra, ..) = params::LL_REGIONAL_POOL;
    mcdn_cdn::ThirdPartyCdn::ips_from_prefix(
        mcdn_netsim::Ipv4Net::parse("69.28.0.0/24").expect("net"),
        1,
        ra,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_geo::{Duration, SimTime};

    fn small_cfg() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::fast();
        cfg.traffic_start = SimTime::from_ymd(2017, 9, 18);
        cfg.traffic_end = SimTime::from_ymd(2017, 9, 21);
        cfg.traffic_tick = Duration::mins(30);
        cfg
    }

    #[test]
    fn produces_flows_and_snmp() {
        let cfg = small_cfg();
        let world = World::build(&cfg);
        let r = run_traffic(&world, &cfg, 0).0;
        assert!(!r.flows.is_empty());
        assert!(r.snmp.samples().count() > 0);
        // Every flow's link actually touches the eyeball AS.
        for (_, link, _) in r.flows.iter().take(500) {
            assert!(world.topo.link(link).touches(params::EYEBALL_AS));
        }
    }

    #[test]
    fn event_day_saturates_d_links() {
        let cfg = small_cfg();
        let world = World::build(&cfg);
        let r = run_traffic(&world, &cfg, 0).0;
        // At some poll during the event, at least two of the four D links
        // run at their capacity.
        let cap_bytes =
            (params::ISP_D_LINK_BPS * cfg.traffic_tick.as_secs() as f64 / 8.0) as u64;
        let mut saturated_links = std::collections::HashSet::new();
        for (t, link, bytes) in r.snmp.samples() {
            if world.isp_d_links.contains(&link)
                && t >= params::release()
                && bytes >= cap_bytes * 95 / 100
            {
                saturated_links.insert(link);
            }
        }
        assert!(
            saturated_links.len() >= 2,
            "expected ≥2 saturated D links, got {}",
            saturated_links.len()
        );
    }

    #[test]
    fn d_links_are_quiet_before_release() {
        let cfg = small_cfg();
        let world = World::build(&cfg);
        let r = run_traffic(&world, &cfg, 0).0;
        let before: u64 = r
            .snmp
            .samples()
            .filter(|(t, link, _)| *t < params::release() && world.isp_d_links.contains(link))
            .map(|(_, _, b)| b)
            .sum();
        let after: u64 = r
            .snmp
            .samples()
            .filter(|(t, link, _)| *t >= params::release() && world.isp_d_links.contains(link))
            .map(|(_, _, b)| b)
            .sum();
        assert!(after > 100 * before.max(1), "D links light up only with the event");
    }

    #[test]
    fn akamai_link_carries_dominant_baseline() {
        let cfg = small_cfg();
        let world = World::build(&cfg);
        let r = run_traffic(&world, &cfg, 0).0;
        // On the quiet day, the Akamai direct link carries more than the
        // Limelight direct link (Akamai is the biggest CDN traffic-wise).
        let day = SimTime::from_ymd(2017, 9, 18);
        let next = day + Duration::days(1);
        let link_to = |asn| {
            world
                .topo
                .links_between(asn, params::EYEBALL_AS)
                .first()
                .map(|l| l.id)
                .expect("direct link")
        };
        let day_bytes = |asn| -> u64 {
            let link = link_to(asn);
            r.snmp
                .samples()
                .filter(|(t, l, _)| *l == link && *t >= day && *t < next)
                .map(|(.., b)| b)
                .sum()
        };
        let ak = day_bytes(params::AKAMAI_AS);
        let ll = day_bytes(params::LIMELIGHT_AS);
        assert!(ak > 3 * ll, "Akamai {ak} vs Limelight {ll}");
    }
}

#[cfg(test)]
mod link_selection_tests {
    use super::*;
    use crate::config::LinkSelection;
    use mcdn_geo::{Duration, SimTime};

    fn run_with(selection: LinkSelection) -> (World, TrafficResult, ScenarioConfig) {
        let mut cfg = ScenarioConfig::fast();
        cfg.traffic_start = SimTime::from_ymd(2017, 9, 19);
        cfg.traffic_end = SimTime::from_ymd(2017, 9, 21);
        cfg.traffic_tick = Duration::mins(30);
        cfg.link_selection = selection;
        let world = World::build(&cfg);
        let r = run_traffic(&world, &cfg, 0).0;
        (world, r, cfg)
    }

    /// The load-placement ablation: fill-order concentrates saturation on
    /// the first links (the paper's "two of four" pattern); ECMP evens the
    /// group out.
    #[test]
    fn ecmp_spreads_where_fill_order_concentrates() {
        let spread = |selection| {
            let (world, r, cfg) = run_with(selection);
            let cap_bytes =
                (params::ISP_D_LINK_BPS * cfg.traffic_tick.as_secs() as f64 / 8.0) as u64;
            // Polls each D link spent ≥99% utilized.
            let polls: Vec<u32> = world
                .isp_d_links
                .iter()
                .map(|id| {
                    r.snmp
                        .samples()
                        .filter(|(_, l, b)| l == id && *b as f64 >= cap_bytes as f64 * 0.99)
                        .count() as u32
                })
                .collect();
            polls
        };
        let fill = spread(LinkSelection::FillOrder);
        let ecmp = spread(LinkSelection::Ecmp);
        // Fill-order: strong ordering, first link saturated much longer
        // than the last.
        assert!(
            fill[0] >= fill[3] + 3,
            "fill order concentrates: {fill:?}"
        );
        // ECMP: the saturation spread across the group is much narrower.
        let range = |v: &Vec<u32>| v.iter().max().unwrap() - v.iter().min().unwrap();
        assert!(
            range(&ecmp) < range(&fill),
            "ECMP must even the group out: ecmp {ecmp:?} vs fill {fill:?}"
        );
    }
}
