//! Remote method invocation (§3.3): subject-named servers, discovery by
//! publication, point-to-point request/reply, fail-over, and server-side
//! deduplication.
//!
//! RMI is driver machinery rather than engine state: calls ride simulated
//! connections, windows ride dynamic timers, and only the counters live
//! in the engine's [`BusStats`](crate::engine::BusStats).

use std::collections::{HashMap, HashSet, VecDeque};

use infobus_netsim::{ConnId, Ctx, SockAddr};
use infobus_subject::{Subject, SubjectFilter, SubscriptionId};
use infobus_types::{wire, Value};

use crate::apps::{AppEvent, TimerTarget};
use crate::daemon::SubTarget;
use crate::daemon::{BusDaemon, DaemonState, RMI_PORT};
use crate::engine::discovery::PendingDiscovery;
use crate::envelope::{Envelope, EnvelopeKind};
use crate::msg::RmiMsg;
use crate::rmi::{CallId, Offer, RetryMode, RmiError, SelectionPolicy, ServiceObject};
use crate::{BusError, QoS};

use crate::engine::Micros;

/// Cap on per-service RMI deduplication entries.
const DEDUP_CAP: usize = 1024;

pub(crate) enum CallPhase {
    Discover,
    Connecting { conn: ConnId },
    Done,
}

pub(crate) struct CallState {
    app_idx: usize,
    subject: Subject,
    op: String,
    args: Vec<Value>,
    policy: SelectionPolicy,
    retry: RetryMode,
    /// Virtual time the call was issued (feeds the latency histogram).
    started: Micros,
    attempts: u32,
    offers: Vec<Offer>,
    tried: HashSet<u32>,
    rediscovered: bool,
    pub(crate) phase: CallPhase,
    temp_sub: Option<SubscriptionId>,
    #[allow(dead_code)]
    timeout_timer: Option<u64>,
}

pub(crate) struct SvcMeta {
    pub(crate) subject: String,
    pub(crate) app_idx: usize,
    outstanding: i64,
    dedup: HashMap<(u32, String, u64), Vec<u8>>,
    dedup_order: VecDeque<(u32, String, u64)>,
}

impl DaemonState {
    // ----- discovery windows -----------------------------------------------

    pub(crate) fn discover(
        &mut self,
        net: &mut Ctx<'_>,
        app_idx: usize,
        subject: &Subject,
        token: u64,
    ) -> Result<(), BusError> {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.engine.stats.discovery_rounds += 1;
        let temp_sub =
            self.subscribe_internal(net, &SubjectFilter::exact(subject), SubTarget::Control);
        self.engine.discovery_start(
            corr,
            PendingDiscovery {
                app_idx,
                token,
                replies: Vec::new(),
                temp_sub,
            },
        );
        // "Who's out there?" is itself a publication on the subject.
        self.publish_payload(
            net,
            app_idx,
            subject,
            QoS::Reliable,
            EnvelopeKind::DiscoverQuery,
            corr,
            wire::marshal_value(&Value::Nil),
        )?;
        let window = self.engine.config().discovery_window_us;
        self.dyn_timer(net, window, TimerTarget::DiscoveryClose { corr });
        Ok(())
    }

    pub(crate) fn add_discovery_responder(
        &mut self,
        net: &mut Ctx<'_>,
        app_idx: usize,
        filter: &SubjectFilter,
        info: Value,
    ) {
        self.subscribe_internal(net, filter, SubTarget::Responder { app_idx, info });
    }

    /// A "Who's out there?" query arrived: matching responders publish
    /// "I am" on the same subject.
    pub(crate) fn answer_discovery(&mut self, net: &mut Ctx<'_>, env: &Envelope) {
        let subject = &env.subject;
        let responders: Vec<(usize, Value)> = self
            .interest
            .targets(subject)
            .filter_map(|t| match t {
                SubTarget::Responder { app_idx, info } => Some((*app_idx, info.clone())),
                _ => None,
            })
            .collect();
        for (app_idx, info) in responders {
            let _ = self.publish_payload(
                net,
                app_idx,
                subject,
                QoS::Reliable,
                EnvelopeKind::DiscoverAnnounce,
                env.corr,
                wire::marshal_value(&info),
            );
        }
    }

    pub(crate) fn close_discovery(&mut self, net: &mut Ctx<'_>, corr: u64) {
        if let Some(d) = self.engine.discovery_close(corr) {
            self.unsubscribe(net, d.temp_sub);
            self.pending.push_back(AppEvent::Discovery {
                app_idx: d.app_idx,
                token: d.token,
                replies: d.replies,
            });
        }
    }

    // ----- RMI client ------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rmi_call(
        &mut self,
        net: &mut Ctx<'_>,
        app_idx: usize,
        subject: &Subject,
        op: &str,
        args: Vec<Value>,
        policy: SelectionPolicy,
        retry: RetryMode,
    ) -> CallId {
        let call_id = self.next_corr;
        self.next_corr += 1;
        self.engine.stats.rmi_calls += 1;
        let temp_sub =
            self.subscribe_internal(net, &SubjectFilter::exact(subject), SubTarget::Control);
        self.calls.insert(
            call_id,
            CallState {
                app_idx,
                subject: subject.clone(),
                op: op.to_owned(),
                args,
                policy,
                retry,
                started: net.now(),
                attempts: 0,
                offers: Vec::new(),
                tried: HashSet::new(),
                rediscovered: false,
                phase: CallPhase::Discover,
                temp_sub: Some(temp_sub),
                timeout_timer: None,
            },
        );
        // The client searches for all servers by publishing a query
        // message on a subject specific to that service (§3.3, Figure 2).
        let _ = self.publish_payload(
            net,
            app_idx,
            subject,
            QoS::Reliable,
            EnvelopeKind::RmiQuery,
            call_id,
            wire::marshal_value(&Value::Nil),
        );
        let window = self.engine.config().offer_window_us;
        self.dyn_timer(net, window, TimerTarget::OfferWindowClose { call: call_id });
        CallId(call_id)
    }

    /// An RMI query arrived: local services matching the subject publish
    /// their point-to-point address.
    pub(crate) fn answer_rmi_query(&mut self, net: &mut Ctx<'_>, env: &Envelope) {
        let subject = &env.subject;
        let services: Vec<usize> = self
            .interest
            .targets(subject)
            .filter_map(|t| match t {
                SubTarget::Service { svc_idx } => Some(*svc_idx),
                _ => None,
            })
            .collect();
        for svc_idx in services {
            let Some(Some(meta)) = self.svc_meta.get(svc_idx) else {
                continue;
            };
            let offer = Value::List(vec![
                Value::I64(self.host32 as i64),
                Value::I64(RMI_PORT as i64),
                Value::I64(meta.outstanding),
            ]);
            let app_idx = meta.app_idx;
            let _ = self.publish_payload(
                net,
                app_idx,
                subject,
                QoS::Reliable,
                EnvelopeKind::RmiOffer,
                env.corr,
                wire::marshal_value(&offer),
            );
        }
    }

    pub(crate) fn collect_offer(&mut self, net: &mut Ctx<'_>, env: &Envelope) {
        let Some(call) = self.calls.get_mut(&env.corr) else {
            return;
        };
        if !matches!(call.phase, CallPhase::Discover) {
            return;
        }
        let Ok(value) = wire::unmarshal_value(&env.payload) else {
            return;
        };
        let Some(items) = value.as_list() else { return };
        if items.len() < 3 {
            return;
        }
        let (Some(host), Some(port), Some(load)) =
            (items[0].as_i64(), items[1].as_i64(), items[2].as_i64())
        else {
            return;
        };
        call.offers.push(Offer {
            host: host as u32,
            port: port as u16,
            load,
        });
        if matches!(call.policy, SelectionPolicy::First) {
            self.try_connect(net, env.corr);
        }
    }

    pub(crate) fn offer_window_closed(&mut self, net: &mut Ctx<'_>, call_id: u64) {
        let Some(call) = self.calls.get(&call_id) else {
            return;
        };
        if matches!(call.phase, CallPhase::Discover) {
            if call.offers.is_empty() {
                self.complete_call(net, call_id, Err(RmiError::NoServer));
            } else {
                self.try_connect(net, call_id);
            }
        }
    }

    fn try_connect(&mut self, net: &mut Ctx<'_>, call_id: u64) {
        let host32 = self.host32;
        let chosen: Option<Offer> = {
            let Some(call) = self.calls.get(&call_id) else {
                return;
            };
            let candidates: Vec<&Offer> = call
                .offers
                .iter()
                .filter(|o| !call.tried.contains(&o.host))
                .collect();
            match call.policy {
                SelectionPolicy::First => candidates.first().map(|o| (*o).clone()),
                SelectionPolicy::Random => {
                    if candidates.is_empty() {
                        None
                    } else {
                        let idx = (net.random() * candidates.len() as f64) as usize;
                        candidates
                            .get(idx.min(candidates.len() - 1))
                            .map(|o| (*o).clone())
                    }
                }
                SelectionPolicy::LeastLoaded => candidates
                    .iter()
                    .min_by_key(|o| o.load)
                    .map(|o| (*o).clone()),
            }
        };
        let Some(offer) = chosen else {
            self.complete_call(net, call_id, Err(RmiError::NoServer));
            return;
        };
        let (app_idx, subject, op, args) = {
            let Some(call) = self.calls.get_mut(&call_id) else {
                return;
            };
            call.tried.insert(offer.host);
            call.attempts += 1;
            (
                call.app_idx,
                call.subject.clone(),
                call.op.clone(),
                call.args.clone(),
            )
        };
        // Arguments travel self-describing so the server can handle
        // instances of types it has never seen.
        let args_bytes: Result<Vec<Vec<u8>>, _> = {
            let registry = self.registry.borrow();
            args.iter()
                .map(|v| wire::marshal_self_describing(v, &registry))
                .collect()
        };
        let args_bytes = match args_bytes {
            Ok(b) => b,
            Err(e) => {
                self.complete_call(net, call_id, Err(RmiError::App(format!("marshal: {e}"))));
                return;
            }
        };
        let conn = net.connect(SockAddr::new(
            infobus_netsim::HostId(offer.host),
            offer.port,
        ));
        let request = RmiMsg::Request {
            call: (host32, self.app_name(app_idx), call_id),
            service: subject.as_str().to_owned(),
            op,
            args: args_bytes,
        };
        let _ = net.conn_send(conn, request.encode());
        self.conn_calls.insert(conn, call_id);
        let timeout = self.engine.config().rmi_timeout_us;
        let timer = self.dyn_timer(net, timeout, TimerTarget::RmiTimeout { call: call_id });
        if let Some(call) = self.calls.get_mut(&call_id) {
            call.phase = CallPhase::Connecting { conn };
            call.timeout_timer = Some(timer);
        }
    }

    pub(crate) fn call_failed(&mut self, net: &mut Ctx<'_>, call_id: u64, error: RmiError) {
        // Presence of `call_id` is established here and nothing below
        // removes it, so the later `.expect("checked above")` lookups are
        // invariant re-borrows, not fallible wire-driven accesses.
        let (retry, attempts, max) = match self.calls.get(&call_id) {
            Some(c) => (c.retry, c.attempts, self.engine.config().rmi_max_attempts),
            None => return,
        };
        if retry == RetryMode::Failover && attempts < max {
            // Fail over to another offered server with the same call id.
            let has_candidates = self
                .calls
                .get(&call_id)
                .map(|c| c.offers.iter().any(|o| !c.tried.contains(&o.host)))
                .unwrap_or(false);
            if has_candidates {
                self.try_connect(net, call_id);
                return;
            }
            // No untried servers: rediscover once.
            let rediscover = {
                let call = self.calls.get_mut(&call_id).expect("checked above");
                if !call.rediscovered {
                    call.rediscovered = true;
                    call.phase = CallPhase::Discover;
                    call.offers.clear();
                    call.tried.clear();
                    true
                } else {
                    false
                }
            };
            if rediscover {
                let (subject, app_idx) = {
                    let call = self.calls.get(&call_id).expect("checked above");
                    (call.subject.clone(), call.app_idx)
                };
                let _ = self.publish_payload(
                    net,
                    app_idx,
                    &subject,
                    QoS::Reliable,
                    EnvelopeKind::RmiQuery,
                    call_id,
                    wire::marshal_value(&Value::Nil),
                );
                let window = self.engine.config().offer_window_us;
                self.dyn_timer(net, window, TimerTarget::OfferWindowClose { call: call_id });
                return;
            }
        }
        self.complete_call(net, call_id, Err(error));
    }

    pub(crate) fn complete_call(
        &mut self,
        net: &mut Ctx<'_>,
        call_id: u64,
        result: Result<Value, RmiError>,
    ) {
        let Some(mut call) = self.calls.remove(&call_id) else {
            return;
        };
        self.engine
            .stats
            .rmi_latency
            .record(net.now().saturating_sub(call.started));
        if let CallPhase::Connecting { conn } = call.phase {
            self.conn_calls.remove(&conn);
            net.conn_close(conn);
        }
        call.phase = CallPhase::Done;
        if let Some(sub) = call.temp_sub.take() {
            self.unsubscribe(net, sub);
        }
        self.pending.push_back(AppEvent::RmiReply {
            app_idx: call.app_idx,
            call: CallId(call_id),
            result,
        });
    }

    // ----- RMI server ------------------------------------------------------

    pub(crate) fn export_service(
        &mut self,
        net: &mut Ctx<'_>,
        app_idx: usize,
        subject: &Subject,
        service: Box<dyn ServiceObject>,
    ) -> Result<(), BusError> {
        if self.services.contains_key(subject.as_str()) {
            return Err(BusError::Duplicate(subject.as_str().to_owned()));
        }
        let svc_idx = self.svc_meta.len();
        self.svc_meta.push(Some(SvcMeta {
            subject: subject.as_str().to_owned(),
            app_idx,
            outstanding: 0,
            dedup: HashMap::new(),
            dedup_order: VecDeque::new(),
        }));
        self.services.insert(subject.as_str().to_owned(), svc_idx);
        self.subscribe_internal(
            net,
            &SubjectFilter::exact(subject),
            SubTarget::Service { svc_idx },
        );
        self.pending_services.push((svc_idx, service));
        Ok(())
    }

    pub(crate) fn withdraw_service(
        &mut self,
        net: &mut Ctx<'_>,
        subject: &str,
    ) -> Result<(), BusError> {
        let Some(svc_idx) = self.services.remove(subject) else {
            return Err(BusError::NotFound(format!("service {subject}")));
        };
        self.svc_meta[svc_idx] = None;
        // Remove the trie entry pointing at this service.
        let mut to_remove = Vec::new();
        self.interest.for_each_local(|id, t| {
            if matches!(t, SubTarget::Service { svc_idx: s } if *s == svc_idx) {
                to_remove.push(id);
            }
        });
        for id in to_remove {
            self.unsubscribe(net, id);
        }
        self.dropped_services.push(svc_idx);
        Ok(())
    }

    /// Handles an incoming RMI request on a server connection.
    pub(crate) fn handle_rmi_request(
        &mut self,
        net: &mut Ctx<'_>,
        conn: ConnId,
        call: (u32, String, u64),
        service: String,
        op: String,
        args: Vec<Vec<u8>>,
    ) {
        let Some(&svc_idx) = self.services.get(&service) else {
            let reply = RmiMsg::Reply {
                call,
                ok: false,
                value: wire::marshal_value(&Value::Nil),
                error: format!("bad-operation: no service {service} here"),
            };
            let _ = net.conn_send(conn, reply.encode());
            return;
        };
        let Some(Some(meta)) = self.svc_meta.get_mut(svc_idx) else {
            return;
        };
        if let Some(cached) = meta.dedup.get(&call) {
            // The retry layer: duplicate requests get the cached reply,
            // so the operation executes at most once per server.
            self.engine.stats.rmi_deduped += 1;
            let bytes = cached.clone();
            let _ = net.conn_send(conn, bytes);
            return;
        }
        meta.outstanding += 1;
        self.pending.push_back(AppEvent::SvcInvoke {
            svc_idx,
            conn,
            call,
            op,
            args,
        });
    }
}

impl BusDaemon {
    pub(crate) fn invoke_service(
        &mut self,
        net: &mut Ctx<'_>,
        svc_idx: usize,
        conn: ConnId,
        call: (u32, String, u64),
        op: String,
        args: Vec<Vec<u8>>,
    ) {
        let Some(mut service) = self.services.get_mut(svc_idx).and_then(Option::take) else {
            return;
        };
        // Unmarshal the self-describing arguments, learning any carried
        // types into this daemon's registry.
        let args: Result<Vec<Value>, _> = {
            let mut registry = self.state.registry.borrow_mut();
            args.iter()
                .map(|b| wire::unmarshal(b, &mut registry))
                .collect()
        };
        let args = match args {
            Ok(a) => a,
            Err(e) => {
                let reply = RmiMsg::Reply {
                    call,
                    ok: false,
                    value: wire::marshal_value(&Value::Nil),
                    error: format!("bad-operation: malformed arguments: {e}"),
                };
                let _ = net.conn_send(conn, reply.encode());
                self.services[svc_idx] = Some(service);
                return;
            }
        };
        let app_idx = self
            .state
            .svc_meta
            .get(svc_idx)
            .and_then(|m| m.as_ref())
            .map(|m| m.app_idx)
            .unwrap_or(usize::MAX);
        // Validate the operation against the self-describing interface.
        let descriptor = service.descriptor();
        let known = descriptor.own_operation(&op);
        let result = match known {
            None => Err(RmiError::BadOperation(format!(
                "{op} is not in the interface"
            ))),
            Some(sig) if sig.params.len() != args.len() => Err(RmiError::BadOperation(format!(
                "{op} expects {} arguments, got {}",
                sig.params.len(),
                args.len()
            ))),
            Some(_) => {
                let mut bus = crate::app::BusCtx {
                    d: &mut self.state,
                    net,
                    app_idx,
                };
                service.invoke(&op, args, &mut bus)
            }
        };
        self.state.engine.stats.rmi_served += 1;
        let reply = match result {
            Ok(value) => {
                let bytes = wire::marshal_self_describing(&value, &self.state.registry.borrow())
                    .unwrap_or_else(|_| wire::marshal_value(&Value::Nil));
                RmiMsg::Reply {
                    call: call.clone(),
                    ok: true,
                    value: bytes,
                    error: String::new(),
                }
            }
            Err(e) => RmiMsg::Reply {
                call: call.clone(),
                ok: false,
                value: wire::marshal_value(&Value::Nil),
                error: match &e {
                    RmiError::BadOperation(m) => format!("bad-operation: {m}"),
                    other => format!("app: {other}"),
                },
            },
        };
        let bytes = reply.encode();
        if let Some(Some(meta)) = self.state.svc_meta.get_mut(svc_idx) {
            meta.outstanding -= 1;
            meta.dedup.insert(call.clone(), bytes.clone());
            meta.dedup_order.push_back(call);
            while meta.dedup_order.len() > DEDUP_CAP {
                if let Some(old) = meta.dedup_order.pop_front() {
                    meta.dedup.remove(&old);
                }
            }
        }
        let _ = net.conn_send(conn, bytes);
        // Put the service back if it was not withdrawn meanwhile.
        if self
            .state
            .svc_meta
            .get(svc_idx)
            .is_some_and(Option::is_some)
        {
            self.services[svc_idx] = Some(service);
        }
    }
}
