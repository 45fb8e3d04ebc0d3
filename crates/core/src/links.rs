//! Information-router links: the netsim driver of the federation
//! [`RouterEngine`](infobus_router::RouterEngine).
//!
//! Each daemon that opens (or accepts) a router link runs one engine.
//! This module translates between the two worlds: connection events and
//! [`RouterMsg`]s become [`RouterEvent`]s, and the engine's
//! [`RouterAction`]s become connection sends and daemon timers. The data
//! path threads through [`DaemonState::maybe_forward`]: every data
//! envelope this daemon publishes or receives is offered to the engine's
//! `route` decision, and forwarded copies carry the engine's
//! [`RouteStamp`] so cyclic router topologies stay loop-free.

use std::sync::Arc;

use infobus_netsim::{ConnId, Ctx, SockAddr};
use infobus_router::{
    ForwardTarget, LinkId, RouteStamp, RouterAction, RouterConfig, RouterEngine, RouterEvent,
    RouterTimer,
};
use infobus_subject::{Subject, SubjectFilter};
use infobus_types::{wire, Value};

use crate::config::BusConfig;
use crate::daemon::{DaemonState, RMI_PORT, TOK_RT_STAB, TOK_RT_SUMMARY};
use crate::engine::filter::CompiledPredicate;
use crate::engine::BusStats;
use crate::envelope::{Envelope, EnvelopeKind};
use crate::msg::RouterMsg;
use crate::router::RewriteRule;

/// Derives the router engine's tuning from the bus configuration: the
/// summary refresh rides the subscription-announce cadence, routes age
/// out after five missed refreshes, and the stabilization pass and hop
/// budget come from their dedicated knobs.
fn router_config(cfg: &BusConfig) -> RouterConfig {
    RouterConfig {
        summary_period_us: cfg.announce_period_us,
        route_ttl_us: 5 * cfg.announce_period_us,
        stabilize_period_us: cfg.router_stabilize_us,
        max_hops: cfg.router_max_hops,
        ..RouterConfig::default()
    }
}

impl DaemonState {
    /// Lazily creates the router engine the first time this daemon opens
    /// or accepts a link, arming its periodic timers.
    fn ensure_router(&mut self, net: &mut Ctx<'_>) {
        if self.router.is_some() {
            return;
        }
        let mut r = RouterEngine::new(self.host32, router_config(self.engine.config()));
        let actions = r.start(net.now());
        self.router = Some(r);
        self.run_router_actions(net, actions);
    }

    /// Allocates a fresh link id for a connection and indexes it both ways.
    fn alloc_link(&mut self, conn: ConnId) -> LinkId {
        let link = self.next_link_id;
        self.next_link_id += 1;
        self.conn_links.insert(conn, link);
        self.link_conns.insert(link, conn);
        link
    }

    /// Performs a batch of router-engine actions against the simulator.
    fn run_router_actions(&mut self, net: &mut Ctx<'_>, actions: Vec<RouterAction>) {
        for action in actions {
            match action {
                RouterAction::SendSummary { link, seq, filters } => {
                    if let Some(&conn) = self.link_conns.get(&link) {
                        // Each filter travels with the content predicate
                        // this side would apply (empty = unfiltered), so
                        // the remote router can gate forwards at *its*
                        // publish hop.
                        let preds: Vec<Vec<u8>> = filters
                            .iter()
                            .map(|f| self.interest.combined_pred(f))
                            .collect();
                        let _ = net.conn_send(
                            conn,
                            RouterMsg::Summary {
                                seq,
                                filters,
                                preds,
                            }
                            .encode(),
                        );
                    }
                }
                RouterAction::SendSummaryReq { link } => {
                    if let Some(&conn) = self.link_conns.get(&link) {
                        let _ = net.conn_send(conn, RouterMsg::SummaryReq.encode());
                    }
                }
                RouterAction::SetTimer { timer, delay_us } => {
                    let token = match timer {
                        RouterTimer::Summary => TOK_RT_SUMMARY,
                        RouterTimer::Stabilize => TOK_RT_STAB,
                    };
                    net.set_timer(delay_us, token);
                }
            }
        }
    }

    /// Re-derives local interest from ground truth (this segment's own
    /// subscriptions plus everything peers announced over broadcast) and
    /// feeds it to the engine. Called at link setup and every summary
    /// period — the periodic re-feed is what lets stabilization discard a
    /// corrupted local-interest copy and heal.
    fn feed_local_interest(&mut self, net: &mut Ctx<'_>) {
        if self.router.is_none() {
            return;
        }
        let filters = self.interest.known_filters();
        let actions = self
            .router
            .as_mut()
            .expect("router presence checked above")
            .handle(net.now(), RouterEvent::LocalInterest { filters });
        self.run_router_actions(net, actions);
    }

    /// Dispatches a fired router timer into the engine.
    pub(crate) fn router_timer(&mut self, net: &mut Ctx<'_>, timer: RouterTimer) {
        if self.router.is_none() {
            return;
        }
        if timer == RouterTimer::Summary {
            self.feed_local_interest(net);
        }
        let actions = self
            .router
            .as_mut()
            .expect("router presence checked above")
            .handle(net.now(), RouterEvent::Timer(timer));
        self.run_router_actions(net, actions);
    }

    /// Tears down the link riding a closed connection. A link this
    /// daemon dialed self-heals: a redial is armed one summary period
    /// out, and keeps re-arming until the peer is reachable again.
    pub(crate) fn close_link(&mut self, net: &mut Ctx<'_>, conn: ConnId) {
        let Some(link) = self.conn_links.remove(&conn) else {
            return;
        };
        self.link_conns.remove(&link);
        self.link_preds.remove(&link);
        if let Some(r) = self.router.as_mut() {
            let actions = r.handle(net.now(), RouterEvent::LinkDown { link });
            self.run_router_actions(net, actions);
        }
        if let Some(peer) = self.link_dials.remove(&conn) {
            let delay = self.engine.config().announce_period_us;
            self.dyn_timer(net, delay, crate::apps::TimerTarget::LinkRedial { peer });
        }
    }

    /// The cheap accept filter: does any link's remote side subscribe?
    pub(crate) fn link_interested(&self, subject: &Subject) -> bool {
        self.router
            .as_ref()
            .is_some_and(|r| r.interested(subject.as_str()))
    }

    /// Offers a data envelope to the router's forwarding decision.
    ///
    /// Two paths converge here. A re-published forward (the `Forward`
    /// handler below) already routed exactly once — its decision waits in
    /// `pending_forward` and is consumed verbatim, because a second
    /// `route` call would re-record the stamp in the dedup window and
    /// suppress the message as its own duplicate. Everything else (local
    /// publications, broadcast arrivals) routes fresh; a broadcast copy
    /// re-published by a co-segment router carries its stamp in
    /// `env.route`, which is how a second router on the same segment
    /// recognizes traffic it must not re-forward.
    pub(crate) fn maybe_forward(&mut self, net: &mut Ctx<'_>, env: &Envelope) {
        if env.kind != EnvelopeKind::Data {
            return;
        }
        if let Some((stamp, targets)) = self.pending_forward.take() {
            self.send_forwards(net, env, stamp, targets);
            return;
        }
        let Some(router) = self.router.as_mut() else {
            return;
        };
        let decision = router.route(net.now(), env.subject.as_str(), None, env.route);
        if decision.accept && !decision.targets.is_empty() {
            self.send_forwards(net, env, decision.stamp, decision.targets);
        }
    }

    /// Transmits one forwarded copy per target link, stamped.
    fn send_forwards(
        &mut self,
        net: &mut Ctx<'_>,
        env: &Envelope,
        stamp: Option<RouteStamp>,
        targets: Vec<ForwardTarget>,
    ) {
        // Unmarshalled at most once, shared across target links; a
        // payload that fails to unmarshal forwards unconditionally (the
        // conservative direction).
        let mut value: Option<Option<Value>> = None;
        for target in targets {
            let Some(&conn) = self.link_conns.get(&target.link) else {
                continue;
            };
            let Ok(subject) = Subject::new(&target.subject) else {
                continue;
            };
            // Per-link publish gate: the remote summary's predicates are
            // in the remote namespace, exactly like `target.subject`
            // after rewrite. When every matching remote filter carries a
            // rejecting predicate, this WAN copy never leaves.
            if let Some(table) = self.link_preds.get(&target.link) {
                let matching: Vec<&Option<Arc<CompiledPredicate>>> = table
                    .iter()
                    .filter(|(f, _)| f.matches(&subject))
                    .map(|(_, p)| p)
                    .collect();
                if !matching.is_empty() && matching.iter().all(|p| p.is_some()) {
                    let v = value.get_or_insert_with(|| {
                        wire::unmarshal(&env.payload, &mut self.registry.borrow_mut()).ok()
                    });
                    if let Some(v) = v {
                        let mut evals = 0u64;
                        let rejected = !matching.iter().filter_map(|p| p.as_deref()).any(|p| {
                            evals += 1;
                            p.eval(v)
                        });
                        self.engine.stats.filt_evals += evals;
                        if rejected {
                            self.engine.stats.filt_pub_suppressed += 1;
                            self.engine.stats.filt_suppressed_bytes += env.payload.len() as u64;
                            continue;
                        }
                    }
                }
            }
            let mut fwd = env.clone();
            fwd.subject = self.engine.table().intern_subject(&subject);
            fwd.route = stamp;
            self.engine.stats.router_forwarded += 1;
            let _ = net.conn_send(conn, RouterMsg::Forward { env: fwd }.encode());
        }
    }

    /// Opens a router link to a peer daemon (driver command, and the
    /// redial path after a dialed link's connection broke).
    pub(crate) fn open_link(&mut self, net: &mut Ctx<'_>, peer: u32, rewrite: Option<RewriteRule>) {
        self.ensure_router(net);
        let conn = net.connect(SockAddr::new(infobus_netsim::HostId(peer), RMI_PORT));
        self.link_dials.insert(conn, peer);
        self.link_rules.insert(peer, rewrite.clone());
        let link = self.alloc_link(conn);
        let _ = net.conn_send(conn, RouterMsg::Hello { host: self.host32 }.encode());
        self.feed_local_interest(net);
        let actions = self
            .router
            .as_mut()
            .expect("ensure_router ran above")
            .handle(net.now(), RouterEvent::LinkUp { link, rewrite });
        self.run_router_actions(net, actions);
    }

    /// Handles a router message arriving on a connection.
    pub(crate) fn handle_router_msg(&mut self, net: &mut Ctx<'_>, conn: ConnId, msg: RouterMsg) {
        match msg {
            RouterMsg::Hello { host: _ } => {
                // The accepting side learns this connection is a link.
                if self.conn_links.contains_key(&conn) {
                    return;
                }
                self.ensure_router(net);
                let link = self.alloc_link(conn);
                self.feed_local_interest(net);
                let actions = self
                    .router
                    .as_mut()
                    .expect("ensure_router ran above")
                    .handle(
                        net.now(),
                        RouterEvent::LinkUp {
                            link,
                            rewrite: None,
                        },
                    );
                self.run_router_actions(net, actions);
            }
            RouterMsg::Summary {
                seq,
                filters,
                preds,
            } => {
                let Some(&link) = self.conn_links.get(&conn) else {
                    return;
                };
                // Mirror the remote's predicate table before the router
                // engine consumes the filter list: it gates this side's
                // forwarded copies in `send_forwards`. A malformed
                // predicate decodes to unfiltered — over-delivery only.
                let table: Vec<(SubjectFilter, Option<Arc<CompiledPredicate>>)> = filters
                    .iter()
                    .enumerate()
                    .filter_map(|(i, f)| {
                        let filter = SubjectFilter::new(f).ok()?;
                        let pred = preds
                            .get(i)
                            .filter(|p| !p.is_empty())
                            .and_then(|p| CompiledPredicate::from_bytes(p).ok())
                            .map(Arc::new);
                        Some((filter, pred))
                    })
                    .collect();
                self.link_preds.insert(link, table);
                let Some(router) = self.router.as_mut() else {
                    return;
                };
                let actions =
                    router.handle(net.now(), RouterEvent::SummaryRecv { link, seq, filters });
                self.run_router_actions(net, actions);
            }
            RouterMsg::SummaryReq => {
                let Some(&link) = self.conn_links.get(&conn) else {
                    return;
                };
                let Some(router) = self.router.as_mut() else {
                    return;
                };
                let actions = router.handle(net.now(), RouterEvent::SummaryReq { link });
                self.run_router_actions(net, actions);
            }
            RouterMsg::Forward { env } => {
                let Some(&link) = self.conn_links.get(&conn) else {
                    return;
                };
                let Some(router) = self.router.as_mut() else {
                    return;
                };
                // Route exactly once; the decision is consumed by the
                // maybe_forward at the end of the re-publication below.
                let decision = router.route(net.now(), env.subject.as_str(), Some(link), env.route);
                if !decision.accept {
                    return; // A loop duplicate: dropped entirely.
                }
                let subject = env.subject.subject().clone();
                self.forward_stamp = decision.stamp;
                self.pending_forward = Some((decision.stamp, decision.targets));
                let _ = self.publish_payload(
                    net,
                    usize::MAX,
                    &subject,
                    env.qos,
                    EnvelopeKind::Data,
                    0,
                    env.payload,
                );
                self.forward_stamp = None;
                self.pending_forward = None;
            }
        }
    }

    /// Stamps the counters kept outside the engine shards: the router's
    /// and the interest table's.
    pub(crate) fn stamp_driver_stats(&self, stats: &mut BusStats) {
        self.interest.fold_into(stats);
        if let Some(r) = &self.router {
            let rs = r.stats();
            stats.route_summaries_sent = rs.summaries_sent;
            stats.route_summaries_recv = rs.summaries_recv;
            stats.route_loops_suppressed = rs.loops_suppressed;
            stats.route_stale_aged = rs.stale_aged;
            stats.route_stab_repairs = rs.stab_repairs;
        }
    }
}
