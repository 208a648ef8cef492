//! The read path, closed loop: one client sends its next query only after
//! the previous answer arrived. A round is the 11 canonical queries plus one
//! consistent Table 1 + Table 2 fetch; what differs between workloads is the
//! port the queries go through.

use cellrel::analysis::store_tables::{
    table1_from_results, table1_from_store, table1_queries, table2_from_result, table2_from_store,
    table2_query,
};
use cellrel::cluster::ClusterRouter;
use cellrel::queryd::{InProcClient, TcpClient};
use cellrel::store::{Query, ResultSet, Store};
use std::time::Instant;

use super::Rep;
use crate::fixture::{Fixture, TABLE2_K};
use crate::trace::Tracer;

/// A table fetch that keeps seeing the epoch change is given up as failed
/// after this many tries.
const MAX_TABLE_TRIES: u32 = 100;

/// Where a client's queries go.
pub enum Port<'a> {
    /// Over TCP to `queryd::serve`.
    Tcp(TcpClient),
    /// Through the `CQ` codec and `QuerydCore::handle_frame`, no socket.
    InProc(InProcClient),
    /// Through the cluster's scatter-gather router.
    Router(&'a ClusterRouter),
    /// Straight into `Store::query`: the offline analysis path.
    Direct(&'a Store),
}

impl Port<'_> {
    /// The span name of one query through this port.
    fn query_span(&self) -> &'static str {
        match self {
            Port::Tcp(_) | Port::InProc(_) => "client.query",
            Port::Router(_) => "cluster.router_query",
            Port::Direct(_) => "store.query",
        }
    }

    /// One query; the answer comes with the epoch of the snapshot it was
    /// read from (0 where the port has no epochs).
    fn query(&mut self, q: &Query, tr: &mut Tracer) -> Result<(u64, ResultSet), String> {
        let name = self.query_span();
        let open = tr.begin(name);
        let out = match self {
            Port::Tcp(c) => c.query(q).map_err(|e| e.to_string()),
            Port::InProc(c) => c.query(q).map_err(|e| e.to_string()),
            Port::Router(r) => r
                .query(q)
                .map(|a| (a.epochs.iter().copied().max().unwrap_or(0), a.result))
                .map_err(|e| e.to_string()),
            Port::Direct(s) => s.query(q).map(|r| (0, r)).map_err(|e| e.to_string()),
        };
        let rows = out.as_ref().map_or(0, |(_, r)| r.rows.len() as u64);
        tr.end(open, &[("rows", rows)]);
        out
    }

    /// Tables 1 and 2, rendered, from one consistent snapshot. `Ok(None)`
    /// means a publish landed between the four queries: the caller retries.
    fn tables(&mut self, tr: &mut Tracer) -> Result<Option<(String, String)>, String> {
        match self {
            Port::Router(r) => tr
                .span("cluster.router_tables", || r.tables(TABLE2_K))
                .map(|(t1, t2)| Some((t1.render(), t2.render())))
                .map_err(|e| e.to_string()),
            Port::Direct(s) => tr
                .span("analysis.tables_from_store", || {
                    Ok((table1_from_store(s)?, table2_from_store(s, TABLE2_K)?))
                })
                .map(|(t1, t2)| Some((t1.render(), t2.render())))
                .map_err(|e: cellrel::store::QueryError| e.to_string()),
            Port::Tcp(_) | Port::InProc(_) => {
                let [qd, qf, qc] = table1_queries();
                let (e1, devices) = self.query(&qd, tr)?;
                let (e2, failing) = self.query(&qf, tr)?;
                let (e3, counts) = self.query(&qc, tr)?;
                let (e4, causes) = self.query(&table2_query(), tr)?;
                if !(e1 == e2 && e2 == e3 && e3 == e4) {
                    return Ok(None);
                }
                Ok(Some(tr.span("analysis.tables_from_results", || {
                    (
                        table1_from_results(&[devices, failing, counts]).render(),
                        table2_from_result(&causes, TABLE2_K).render(),
                    )
                })))
            }
        }
    }
}

/// One round through `port`. With `verify_rows` every answer must equal the
/// reference's rows; with `verify_tables` the fetched tables must render
/// byte-identical to the reference's. Latencies and failures go to `rep`.
pub fn one_round(
    port: &mut Port<'_>,
    fx: &Fixture,
    verify_rows: bool,
    verify_tables: bool,
    tr: &mut Tracer,
    rep: &mut Rep,
) {
    let (mut round_us, mut slowest_us) = (0.0, 0.0f64);
    for ((name, q), want) in fx.canonical.iter().zip(&fx.ref_rows) {
        tr.next_op();
        let t = Instant::now();
        let got = port.query(q, tr);
        let us = t.elapsed().as_secs_f64() * 1e6;
        round_us += us;
        slowest_us = slowest_us.max(us);
        rep.query_us.push(us);
        rep.attempted += 1;
        match got {
            Ok((_, rs)) if verify_rows => rep.check(rs.rows == *want, name),
            Ok(_) => {}
            Err(e) => {
                rep.failed += 1;
                eprintln!("benchmark: FAILED query {name}: {e}");
            }
        }
    }
    rep.query_mean_us.push(round_us / fx.canonical.len() as f64);
    rep.query_slowest_us.push(slowest_us);
    tr.next_op();
    let t = Instant::now();
    let open = tr.begin("client.tables");
    let mut tries = 0u32;
    let tables = loop {
        tries += 1;
        match port.tables(tr) {
            Ok(None) if tries < MAX_TABLE_TRIES => continue,
            Ok(None) => break Err("no consistent epoch".to_string()),
            Ok(Some(t)) => break Ok(t),
            Err(e) => break Err(e),
        }
    };
    tr.end(open, &[("tries", u64::from(tries))]);
    rep.tables_ms.push(t.elapsed().as_secs_f64() * 1e3);
    rep.attempted += 1;
    *rep.notes.entry("queryd.table_retries").or_default() += f64::from(tries - 1);
    match tables {
        Ok((t1, t2)) if verify_tables => {
            rep.check(t1 == fx.ref_table1 && t2 == fx.ref_table2, "tables 1/2");
        }
        Ok(_) => {}
        Err(e) => {
            rep.failed += 1;
            eprintln!("benchmark: FAILED table fetch: {e}");
        }
    }
}

/// `rounds` rounds against a final snapshot: the first round's rows and
/// every table set are verified against the reference.
pub fn read_rounds(port: &mut Port<'_>, fx: &Fixture, rounds: usize, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let t = Instant::now();
    for round in 0..rounds {
        one_round(port, fx, round == 0, true, tr, &mut rep);
    }
    rep.read_s = t.elapsed().as_secs_f64();
    rep
}
