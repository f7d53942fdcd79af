//! What every workload builds on: seeded content, the benchmark's
//! application router, a deployed shared-certificate fleet, and the
//! deterministic work counters and behaviour witness.

use std::sync::Arc;

use revelio::extension::{MonitoredSession, WebExtension};
use revelio::world::{DeployedFleet, SimWorld};
use revelio::RevelioError;
use revelio_crypto::metrics::{thread_point_decompressions, thread_scalar_mul_ops};
use revelio_crypto::sha2::{HashFunction as _, Sha256};
use revelio_http::client::HttpsClient;
use revelio_http::message::Response;
use revelio_http::router::Router;
use revelio_telemetry::retry::RETRY_ATTEMPTS_TOTAL;
use revelio_telemetry::Telemetry;
use revelio_tls::client::TlsClientConfig;

/// The domain every benchmark fleet serves.
pub const DOMAIN: &str = "bench.example.org";

/// Size of each bulk object, bytes.
pub const OBJECT_BYTES: usize = 256 * 1024;

/// Distinct bulk objects served (and uploaded).
pub const OBJECTS: usize = 4;

/// SplitMix64: the benchmark's only source of input randomness, so one
/// seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// An error mapper prefixing the failed step: `.map_err(err("TLS open"))`.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Lower-case hex.
#[must_use]
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A served object and the digest the client checks it against.
#[derive(Debug, Clone)]
pub struct Object {
    /// Request path.
    pub path: String,
    /// Body bytes.
    pub body: Vec<u8>,
    /// SHA-256 of `body`.
    pub digest: [u8; 32],
}

impl Object {
    fn new(path: String, body: Vec<u8>) -> Self {
        let digest = Sha256::digest(&body);
        Object { path, body, digest }
    }
}

/// The benchmark's seeded content: a small page and the bulk objects.
#[derive(Debug)]
pub struct Content {
    /// `/`: a ~50-byte page.
    pub page: Object,
    /// `/obj/<i>`: [`OBJECTS`] objects of [`OBJECT_BYTES`] each.
    pub objects: Vec<Object>,
}

impl Content {
    /// The content for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Arc<Self> {
        let mut rng = Rng::new(seed, 1);
        let page = format!("<html><body>bench {:016x}</body></html>", rng.next_u64());
        let objects = (0..OBJECTS)
            .map(|i| Object::new(format!("/obj/{i}"), rng.bytes(OBJECT_BYTES)))
            .collect();
        Arc::new(Content {
            page: Object::new("/".to_owned(), page.into_bytes()),
            objects,
        })
    }

    /// The application every benchmark node serves: the page, the
    /// objects, and `POST /echo`, which answers `<length>:<sha256 hex>`
    /// of the uploaded body so the client can check the upload.
    #[must_use]
    pub fn router(self: &Arc<Self>) -> Router {
        let page = Arc::clone(self);
        let mut router = Router::new()
            .get("/", move |_| Response::ok(page.page.body.clone()))
            .post("/echo", |req| Response::ok(echo_of(&req.body).into_bytes()));
        for i in 0..self.objects.len() {
            let content = Arc::clone(self);
            router = router.get(&self.objects[i].path, move |_| {
                Response::ok(content.objects[i].body.clone())
            });
        }
        router
    }
}

/// What `POST /echo` answers for `body`.
#[must_use]
pub fn echo_of(body: &[u8]) -> String {
    format!("{}:{}", body.len(), hex(&Sha256::digest(body)))
}

/// Checks a response against the expected status-200 body digest.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_body(what: &str, response: &Response, digest: &[u8; 32]) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!("{what}: HTTP status {}", response.status));
    }
    if Sha256::digest(&response.body) != *digest {
        return Err(format!(
            "{what}: body of {} bytes does not match the served digest",
            response.body.len()
        ));
    }
    Ok(())
}

/// The world seed of benchmark seed `seed`.
#[must_use]
pub fn world_seed(seed: u64) -> u64 {
    Rng::new(seed, 2).next_u64()
}

/// A world with a provisioned shared-certificate fleet serving
/// [`Content::router`] and one extension registered for it.
pub struct Fixture {
    /// The simulated world.
    pub world: SimWorld,
    /// The fleet.
    pub fleet: DeployedFleet,
    /// The long-lived browser extension.
    pub extension: WebExtension,
    /// What the fleet serves.
    pub content: Arc<Content>,
    seed: u64,
}

impl Fixture {
    /// Deploys an `nodes`-node fleet for `seed`.
    ///
    /// # Errors
    ///
    /// Propagates deployment failures.
    pub fn new(seed: u64, nodes: usize) -> Result<Self, RevelioError> {
        let content = Content::new(seed);
        let mut world = SimWorld::new(world_seed(seed));
        let fleet = world.deploy_fleet(DOMAIN, nodes, content.router())?;
        let extension = world.extension();
        extension.register_site(DOMAIN, [fleet.golden_measurement]);
        Ok(Fixture {
            world,
            fleet,
            extension,
            content,
            seed,
        })
    }

    /// A fresh attested session on the long-lived extension.
    ///
    /// # Errors
    ///
    /// Propagates attestation failures.
    pub fn session(&self) -> Result<MonitoredSession, RevelioError> {
        self.extension.open_monitored(DOMAIN)
    }

    /// A fresh browser TLS client (what the extension holds inside),
    /// for the traced decomposition of a visit. `n` selects its entropy.
    #[must_use]
    pub fn client(&self, n: u64) -> HttpsClient {
        let mut entropy = [0u8; 32];
        entropy[..8].copy_from_slice(&self.seed.to_le_bytes());
        entropy[8..16].copy_from_slice(&n.to_le_bytes());
        entropy[31] = 0xb7;
        HttpsClient::new(
            self.world.net.clone(),
            self.world.dns.clone(),
            TlsClientConfig {
                trusted_roots: self.world.tls_roots(),
                clock: self.world.clock.clone(),
                telemetry: Some(self.world.telemetry.clone()),
            },
            entropy,
        )
        .with_telemetry(self.world.telemetry.clone())
    }
}

/// Names of the [`Work`] counters, in report order.
pub const WORK_NAMES: [&str; 16] = [
    "crypto.scalar_muls",
    "crypto.decompressions",
    "tls.handshakes",
    "tls.resumptions",
    "snp.kds_requests",
    "verifier.cache_hits",
    "verifier.cache_misses",
    "verifier.invalidations",
    "verifier.signature_checks",
    "verifier.tls_binding_checks",
    "verifier.evidence_requests",
    "pki.acme_orders",
    "boot.boots",
    "reconcile.upgrades",
    "retry.attempts",
    "telemetry.spans",
];

/// Work done, read through public counters: this thread's crypto
/// kernel counts and the world's `revelio_*_total` telemetry, indexed
/// like [`WORK_NAMES`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work(pub [u64; 16]);

impl Work {
    /// Index of the scalar-multiplication count.
    pub const SCALAR_MULS: usize = 0;
    /// Index of the resumed-handshake count.
    pub const RESUMPTIONS: usize = 3;
    /// Index of the verdict-cache miss count.
    pub const CACHE_MISSES: usize = 6;
    /// Index of the signature-equation count.
    pub const SIGNATURE_CHECKS: usize = 8;
    /// Index of the TLS-binding check count.
    pub const TLS_BINDING_CHECKS: usize = 9;
    /// Index of the evidence-request count.
    pub const EVIDENCE_REQUESTS: usize = 10;

    /// Reads the counters now. `telemetry` is `None` before a world
    /// exists (its counters then read 0).
    #[must_use]
    pub fn read(telemetry: Option<&Telemetry>) -> Self {
        let c = |name: &str| telemetry.map_or(0, |t| t.counter(name));
        Work([
            thread_scalar_mul_ops(),
            thread_point_decompressions(),
            c("revelio_tls_handshakes_total"),
            c("revelio_tls_resumptions_total"),
            c("revelio_sevsnp_kds_vcek_requests_total"),
            c("revelio_extension_verify_cache_hits_total"),
            c("revelio_extension_verify_cache_misses_total"),
            c("revelio_extension_verify_cache_invalidations_total"),
            c("revelio_extension_signature_verifications_total"),
            c("revelio_extension_tls_binding_checks_total"),
            c("revelio_node_evidence_requests_total"),
            telemetry.map_or(0, |t| t.span_durations_ms("acme.order").len() as u64),
            c("revelio_boot_boots_total"),
            c("revelio_reconcile_upgrades_total"),
            c(RETRY_ATTEMPTS_TOTAL),
            telemetry.map_or(0, |t| t.span_count() as u64),
        ])
    }

    /// `self - base`, counter by counter.
    #[must_use]
    pub fn since(self, base: Work) -> Work {
        Work(std::array::from_fn(|i| self.0[i].saturating_sub(base.0[i])))
    }

    /// `self + other`, counter by counter.
    #[must_use]
    pub fn plus(self, other: Work) -> Work {
        Work(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }

    /// The counts as `name=value` pairs.
    #[must_use]
    pub fn render(&self) -> String {
        WORK_NAMES
            .iter()
            .zip(self.0)
            .map(|(name, v)| format!("{name}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The behaviour witness: a digest over what each operation did —
/// verdicts, statuses, body digests, sim-clock durations, transcript
/// digests — and never over how fast it did it.
#[derive(Debug, Clone, Default)]
pub struct Witness(Sha256);

impl Witness {
    /// Appends one labelled field.
    pub fn add(&mut self, label: &str, value: &[u8]) {
        self.0.update(&(label.len() as u64).to_le_bytes());
        self.0.update(label.as_bytes());
        self.0.update(&(value.len() as u64).to_le_bytes());
        self.0.update(value);
    }

    /// Appends a number.
    pub fn num(&mut self, label: &str, value: u64) {
        self.add(label, &value.to_le_bytes());
    }

    /// The digest so far, hex.
    #[must_use]
    pub fn hex(&self) -> String {
        hex(&self.0.clone().finalize())
    }
}
