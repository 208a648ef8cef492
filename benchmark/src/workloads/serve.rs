//! The batch-loaded store and the `serve_static` workload: load once,
//! restart once from the saved image, then two TCP clients read.

use cellrel::queryd::{serve, QuerydCore, TcpClient};
use cellrel::store::{restore_store, save_store, Store};
use std::time::Instant;

use super::read::{read_rounds, Port};
use super::{Rep, RESTARTS};
use crate::calib::Calibrator;
use crate::fixture::{batch_build, Fixture, Sizes};
use crate::trace::Tracer;

/// Concurrent TCP clients of `serve_static`: with the connection threads
/// that answer them blocked in turn, `nproc` = 2 threads stay runnable.
pub const CLIENTS: u32 = 2;

/// The batch write path: every upload batch through one collector into one
/// store, sealed, and saved as an image. Returns the store and its image.
pub fn batch_load(fx: &Fixture, tr: &mut Tracer) -> (Store, Vec<u8>) {
    let mut store = tr.span("store.build", || {
        batch_build(&fx.stream_cfg, &fx.dir, &fx.batches)
    });
    tr.arg("records", store.inserted());
    tr.span("store.seal_columnar", || store.seal_columnar());
    let image = tr.span("store.save", || save_store(&store));
    tr.arg("bytes", image.len() as u64);
    (store, image)
}

/// Restart of a batch-loaded server, [`RESTARTS`] times: the store again
/// from its image alone, with its digest.
pub fn restore_image(image: &[u8], fx: &Fixture, tr: &mut Tracer, rep: &mut Rep) -> (Store, u64) {
    let mut last = None;
    for _ in 0..RESTARTS {
        let t = Instant::now();
        let restored = tr.span("store.restore", || restore_store(image));
        rep.recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match restored {
            Ok(store) => {
                let digest = store.digest();
                rep.check(digest == fx.ref_digest, "restored digest == reference");
                last = Some((store, digest));
            }
            Err(e) => rep.check(false, &format!("restore_store: {e}")),
        }
    }
    last.unwrap_or_else(|| (Store::new(&fx.stream_cfg.store), 0))
}

/// `serve_static`: batch load and publish, restart from the image, then
/// [`CLIENTS`] TCP clients each run `rounds` rounds.
pub fn serve_static(fx: &Fixture, sizes: &Sizes, tr: &mut Tracer, cal: &mut Calibrator) -> Rep {
    let t_rep = Instant::now();
    let mut rep = Rep {
        attempted: fx.batches.len() as u64,
        ..Rep::default()
    };
    tr.next_op();
    let (store, image) = batch_load(fx, tr);
    rep.records = store.inserted();
    rep.durable_bytes = image.len() as u64;
    let core = QuerydCore::new(Store::new(&fx.stream_cfg.store));
    tr.span("queryd.publish", || core.publish(store));
    rep.write_s = t_rep.elapsed().as_secs_f64();
    rep.visible_ms.push(rep.write_s * 1e3);
    rep.speed.write = cal.mark();

    let (restored, digest) = restore_image(&image, fx, tr, &mut rep);
    rep.speed.recover = cal.mark();
    rep.digest = digest;
    tr.span("queryd.publish", || core.publish(restored));

    let server = serve(core, "127.0.0.1:0").expect("bind queryd");
    let addr = server.addr();
    let t_read = Instant::now();
    let mut forks: Vec<Tracer> = (1..=CLIENTS).map(|tid| tr.fork(tid)).collect();
    let reads: Vec<Rep> = std::thread::scope(|s| {
        let clients: Vec<_> = forks
            .iter_mut()
            .map(|ctr| {
                s.spawn(move || {
                    let mut port = Port::Tcp(TcpClient::connect(addr).expect("client connect"));
                    read_rounds(&mut port, fx, sizes.rounds, ctr)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    rep.read_s = t_read.elapsed().as_secs_f64();
    rep.speed.read = cal.mark();
    server.shutdown();
    for (reads, fork) in reads.into_iter().zip(forks) {
        rep.absorb_reads(reads);
        tr.absorb(fork);
    }
    rep.wall_s = t_rep.elapsed().as_secs_f64();
    rep
}
