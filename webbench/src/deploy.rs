//! Setting up a deployment: a populated database, both servers, and
//! the first successful response from each.

use crate::client::Client;
use crate::workload::{Sizes, Workload};
use staged_core::{BaselineServer, ServerConfig, ServerHandle, StagedServer};
use staged_db::{CostModel, Database};
use staged_tpcw::{build_app, populate, ScaleConfig};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `ScaleConfig::small()` with the emulated render and static costs
/// off, so every microsecond measured is real code.
pub fn scale() -> ScaleConfig {
    ScaleConfig {
        render_weight_per_kb: Duration::ZERO,
        static_weight: Duration::ZERO,
        ..ScaleConfig::small()
    }
}

/// The shipped server defaults, with the document cache on only for
/// workloads that ask for it.
pub fn server_config(workload: Workload) -> ServerConfig {
    ServerConfig {
        doc_cache: workload.doc_cache(),
        ..ServerConfig::default()
    }
}

/// A populated deployment of both servers.
pub struct Deployment {
    /// The staged five-pool server.
    pub staged: ServerHandle,
    /// The thread-per-request server, on its own copy of the database.
    pub baseline: ServerHandle,
    /// The populated database as a snapshot, for fresh copies.
    pub snapshot: Arc<Vec<u8>>,
    /// The served bytes of every thumbnail, by number.
    pub thumbs: Arc<Vec<Vec<u8>>>,
    /// Population sizes for the request generators.
    pub sizes: Sizes,
}

impl Deployment {
    /// Populates a database, starts both servers (the baseline on a
    /// restored copy) and waits for each one's first successful
    /// response. Returns the deployment and how long that took.
    ///
    /// # Errors
    ///
    /// Server start-up or first-response failures.
    pub fn start(workload: Workload) -> io::Result<(Deployment, Duration)> {
        let scale = scale();
        let started = Instant::now();
        let db = Database::new();
        populate(&db, &scale);
        let mut dump = Vec::new();
        db.dump(&mut dump)?;
        let snapshot = Arc::new(dump);
        let app = build_app(&db, &scale);
        let staged = StagedServer::start(server_config(workload), app.clone(), free(db))?;
        let copy = restore(&snapshot);
        let baseline = BaselineServer::start(
            server_config(workload),
            build_app(&copy, &scale),
            free(copy),
        )?;
        first_response(&staged)?;
        first_response(&baseline)?;
        let setup = started.elapsed();

        let thumbs: Vec<Vec<u8>> = (0..scale.images)
            .map(|n| {
                app.statics()
                    .lookup(&format!("/img/thumb_{n}.gif"))
                    .map(|(_, body)| body.to_vec())
                    .unwrap_or_default()
            })
            .collect();
        let sizes = Sizes {
            items: scale.items as u64,
            customers: scale.customers as u64,
            images: scale.images as u64,
        };
        Ok((
            Deployment {
                staged,
                baseline,
                snapshot,
                thumbs: Arc::new(thumbs),
                sizes,
            },
            setup,
        ))
    }

    /// Stops both servers.
    ///
    /// # Errors
    ///
    /// A server that did not shut down cleanly.
    pub fn shutdown(self) -> Result<(), String> {
        self.staged
            .shutdown()
            .map_err(|e| format!("staged shutdown: {e:?}"))?;
        self.baseline
            .shutdown()
            .map_err(|e| format!("baseline shutdown: {e:?}"))
    }
}

fn free(db: Database) -> Arc<Database> {
    db.set_cost_model(CostModel::free());
    Arc::new(db)
}

/// A fresh database restored from `snapshot`, with no query cost.
pub fn restore(snapshot: &[u8]) -> Database {
    let db = Database::restore(snapshot).expect("a snapshot this process wrote restores");
    db.set_cost_model(CostModel::free());
    db
}

/// Polls `/home` until the server answers `200` (at most 10 s).
fn first_response(server: &ServerHandle) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = Client::new(server.addr());
    loop {
        match client.get("/home?c_id=1") {
            Ok(200) => return Ok(()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            other => {
                return Err(io::Error::other(format!(
                    "no successful first response: {other:?}"
                )))
            }
        }
    }
}
