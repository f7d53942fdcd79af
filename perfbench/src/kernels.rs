//! Per-layer kernel rows: each layer's public functions replayed on the
//! inputs the workloads use — the page and object sizes, a fleet's
//! evidence bundle, its session ticket, an image with a seeded payload
//! — on a side world built from the run's seed. Every row is a
//! wall-clock median over several batches.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use revelio::evidence::EvidenceBundle;
use revelio::kds_http::{KdsHttpClient, KDS_ADDRESS};
use revelio::reconcile::FleetSpec;
use revelio_boot::firmware::FirmwareKind;
use revelio_boot::loader::{BootOptions, Hypervisor};
use revelio_build::image::build_image;
use revelio_crypto::aead::ChaCha20Poly1305;
use revelio_crypto::ed25519::{verify_batch, BatchItem, SigningKey};
use revelio_crypto::kdf::pbkdf2;
use revelio_crypto::sha2::Sha256;
use revelio_crypto::x25519;
use revelio_crypto::xts::Xts;
use revelio_http::message::{Request, Response};
use revelio_http::WELL_KNOWN_ATTESTATION_PATH;
use revelio_net::net::{ConnectionHandler, Listener};
use revelio_net::NetError;
use revelio_pki::cert::CertificateSigningRequest;
use revelio_storage::block::{read_at, write_at, BlockDevice, MemBlockDevice};
use revelio_storage::crypt::{CryptDevice, CryptParams};
use revelio_storage::verity::{VerityDevice, VerityParams, VerityTree};
use revelio_telemetry::Telemetry;
use sev_snp::ids::GuestPolicy;
use sev_snp::verify::ReportVerifier;

use crate::fixture::{err, Fixture, Rng, DOMAIN, OBJECT_BYTES};
use crate::stats::median;

const MIB: f64 = 1024.0 * 1024.0;

/// Storage and build rows work on this much data.
const VOLUME_BYTES: usize = 1024 * 1024;

/// One per-layer row: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

/// Median over `batches` batches of the mean time of one call, µs.
fn per_call_us(batches: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    median(&mut samples)
}

/// Median of individually timed calls with untimed preparation, µs.
fn prepared_us<P>(n: usize, mut prepare: impl FnMut(usize) -> P, mut f: impl FnMut(P)) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|i| {
            let input = prepare(i);
            let t0 = Instant::now();
            f(input);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut samples)
}

fn mb_per_s(bytes: usize, us: f64) -> f64 {
    bytes as f64 / MIB / (us / 1e6)
}

/// Answers every message with itself.
struct Echo;

impl Listener for Echo {
    fn accept(&self) -> Box<dyn ConnectionHandler> {
        Box::new(EchoConnection)
    }
}

struct EchoConnection;

impl ConnectionHandler for EchoConnection {
    fn on_message(&mut self, message: &[u8]) -> Result<Vec<u8>, NetError> {
        Ok(message.to_vec())
    }
}

/// Every kernel row, measured on a side world for `seed`.
///
/// # Errors
///
/// Describes the first replay that failed.
pub fn rows(seed: u64) -> Result<Vec<Row>, String> {
    let mut rows = crypto_rows(seed);
    rows.extend(storage_rows(seed)?);
    rows.extend(telemetry_rows());
    let fx = Fixture::new(seed ^ 0x51DE, 2).map_err(|e| format!("side fleet: {e}"))?;
    rows.extend(request_path_rows(&fx)?);
    rows.extend(control_rows(seed, fx)?);
    Ok(rows)
}

fn crypto_rows(seed: u64) -> Vec<Row> {
    let mut rng = Rng::new(seed, 4);
    let report = rng.bytes(1184);
    let keys: Vec<SigningKey> = (0..4)
        .map(|_| SigningKey::from_seed(&rng.bytes(32).try_into().expect("32 bytes")))
        .collect();
    let signatures: Vec<_> = keys.iter().map(|k| k.sign(&report)).collect();
    let expanded: Vec<_> = keys.iter().map(|k| k.verifying_key().expand()).collect();
    let batch: Vec<BatchItem<'_>> = (0..4)
        .map(|i| BatchItem {
            key: &expanded[i],
            message: &report,
            signature: &signatures[i],
        })
        .collect();
    let vk = keys[0].verifying_key();
    let scalar: [u8; 32] = rng.bytes(32).try_into().expect("32 bytes");
    let block = rng.bytes(4096);
    let record = rng.bytes(52);
    let bulk = rng.bytes(OBJECT_BYTES);
    let xts = Xts::new(&rng.bytes(64)).expect("64-byte XTS key");
    let aead = ChaCha20Poly1305::new(&rng.bytes(32).try_into().expect("32 bytes"));
    let nonce = [7u8; 12];
    let sealed_record = aead.seal(&nonce, b"", &record);

    let sha_us = per_call_us(5, 1, || {
        for _ in 0..256 {
            black_box(Sha256::digest(black_box(&block)));
        }
    });
    let xts_us = per_call_us(5, 1, || {
        for sector in 0..64 {
            black_box(xts.encrypt_sector(sector, &block).expect("whole sector"));
        }
    });
    vec![
        (
            "crypto.ed25519_sign_us",
            per_call_us(5, 20, || {
                black_box(keys[0].sign(black_box(&report)));
            }),
            "us",
        ),
        (
            "crypto.ed25519_verify_us",
            per_call_us(5, 20, || {
                vk.verify(black_box(&report), &signatures[0])
                    .expect("valid signature");
            }),
            "us",
        ),
        (
            "crypto.ed25519_verify_batch4_us",
            per_call_us(5, 10, || {
                verify_batch(black_box(&batch)).expect("valid batch")
            }),
            "us",
        ),
        (
            "crypto.x25519_us",
            per_call_us(5, 20, || {
                black_box(x25519::x25519(black_box(&scalar), &x25519::basepoint()));
            }),
            "us",
        ),
        (
            "crypto.pbkdf2_ms",
            per_call_us(5, 1, || {
                black_box(pbkdf2::<Sha256>(b"bench key", &[7; 32], 1000, 64));
            }) / 1e3,
            "ms",
        ),
        (
            "crypto.sha256_mb_per_s",
            mb_per_s(256 * 4096, sha_us),
            "MB/s",
        ),
        (
            "crypto.aes_xts_mb_per_s",
            mb_per_s(64 * 4096, xts_us),
            "MB/s",
        ),
        (
            "crypto.aead_small_us",
            per_call_us(5, 200, || {
                black_box(aead.seal(&nonce, b"", black_box(&record)));
                black_box(
                    aead.open(&nonce, b"", &sealed_record)
                        .expect("authentic record"),
                );
            }),
            "us",
        ),
        (
            "crypto.aead_mb_per_s",
            mb_per_s(
                OBJECT_BYTES,
                per_call_us(5, 2, || {
                    black_box(aead.seal(&nonce, b"", black_box(&bulk)));
                }),
            ),
            "MB/s",
        ),
    ]
}

fn storage_rows(seed: u64) -> Result<Vec<Row>, String> {
    let data = Rng::new(seed, 5).bytes(VOLUME_BYTES);
    let params = VerityParams {
        hash_block_size: 4096,
        salt: [3; 32],
    };
    let raw = Arc::new(MemBlockDevice::from_bytes(4096, &data));
    let build_us = per_call_us(3, 1, || {
        black_box(VerityTree::build(raw.as_ref(), params.clone()).expect("tree builds"));
    });
    let tree = VerityTree::build(raw.as_ref(), params).map_err(|e| e.to_string())?;
    let root = tree.root_hash();
    let verity = VerityDevice::open(raw.clone(), tree, &root).map_err(|e| e.to_string())?;
    let verity_us = per_call_us(3, 1, || {
        black_box(read_at(&verity, 0, VOLUME_BYTES).expect("verified read"));
    });

    let crypt_params = CryptParams {
        iterations: 1000,
        salt: [7; 32],
    };
    let backing: Arc<dyn BlockDevice> =
        Arc::new(MemBlockDevice::new(4096, (VOLUME_BYTES / 4096 + 1) as u64));
    CryptDevice::format(Arc::clone(&backing), b"bench key", &crypt_params)
        .map_err(|e| e.to_string())?;
    let crypt =
        CryptDevice::open(backing, b"bench key", &crypt_params).map_err(|e| e.to_string())?;
    let write_us = per_call_us(3, 1, || {
        write_at(&crypt, 0, &data).expect("encrypted write")
    });
    let read_us = per_call_us(3, 1, || {
        black_box(read_at(&crypt, 0, VOLUME_BYTES).expect("decrypted read"));
    });
    if read_at(&crypt, 0, VOLUME_BYTES).map_err(|e| e.to_string())? != data {
        return Err("crypt volume read back different bytes".into());
    }
    Ok(vec![
        (
            "storage.verity_build_mb_per_s",
            mb_per_s(VOLUME_BYTES, build_us),
            "MB/s",
        ),
        (
            "storage.verity_read_mb_per_s",
            mb_per_s(VOLUME_BYTES, verity_us),
            "MB/s",
        ),
        (
            "storage.crypt_read_mb_per_s",
            mb_per_s(VOLUME_BYTES, read_us),
            "MB/s",
        ),
        (
            "storage.crypt_write_mb_per_s",
            mb_per_s(VOLUME_BYTES, write_us),
            "MB/s",
        ),
    ])
}

fn telemetry_rows() -> Vec<Row> {
    let telemetry = Telemetry::new(revelio_net::clock::SimClock::new());
    vec![
        (
            "telemetry.counter_add_ns",
            per_call_us(5, 20_000, || {
                telemetry.counter_add("perfbench_probe_total", 1)
            }) * 1e3,
            "ns",
        ),
        (
            "telemetry.span_ns",
            per_call_us(5, 2_000, || drop(telemetry.span("perfbench.probe"))) * 1e3,
            "ns",
        ),
    ]
}

fn request_path_rows(fx: &Fixture) -> Result<Vec<Row>, String> {
    let world = &fx.world;
    let client = fx.client(7);
    let mut raw = client.open(DOMAIN).map_err(err("TLS open"))?;
    let ticket = raw
        .resumption_state()
        .cloned()
        .ok_or("the side fleet issued no session ticket")?;
    let bundle = raw
        .send(&Request::get(WELL_KNOWN_ATTESTATION_PATH))
        .map_err(err("evidence fetch"))?;
    let evidence = EvidenceBundle::from_bytes(&bundle.body).map_err(err("evidence decode"))?;
    let key = raw.peer_public_key();
    let report = &evidence.report.report;
    let kds = KdsHttpClient::without_cache(world.net.clone(), KDS_ADDRESS);
    let chain = kds
        .vcek_chain(&report.chip_id, &report.reported_tcb)
        .map_err(err("KDS"))?;
    let verifier = ReportVerifier::new(world.amd.ark_public_key());
    verifier
        .verify_batched(&evidence.report, &chain)
        .map_err(err("batched verify"))?;
    let ext = &fx.extension;
    ext.verify_evidence(DOMAIN, &evidence)
        .map_err(err("verify_evidence"))?;
    let mut session = fx.session().map_err(err("monitored session"))?;
    let page = &fx.content.page;
    let object = &fx.content.objects[0];

    let codec = |body: &[u8]| {
        let request = Request::get("/").to_bytes().expect("encodable request");
        black_box(Request::from_bytes(&request).expect("decodable request"));
        let response = Response::ok(body.to_vec())
            .to_bytes()
            .expect("encodable response");
        black_box(Response::from_bytes(&response).expect("decodable response"));
    };

    let net = &world.net;
    net.bind("10.77.0.1:7", Arc::new(Echo))
        .map_err(err("bind echo"))?;
    let small = vec![0x5a; 64];
    let big = vec![0xa5; OBJECT_BYTES];
    let mut conn = net.dial("10.77.0.1:7").map_err(err("dial echo"))?;
    let bind_us = per_call_us(5, 1, || {
        let addresses: Vec<String> = (0..32).map(|i| format!("10.78.0.{i}:443")).collect();
        net.batch(|n| {
            for a in &addresses {
                n.bind(a, Arc::new(Echo)).expect("fresh address");
            }
        });
        for a in &addresses {
            net.unbind(a);
        }
    }) / 32.0;
    let exchange_us = per_call_us(5, 4, || {
        black_box(conn.exchange(&big).expect("echo"));
    });

    let rows = vec![
        (
            "tls.full_handshake_us",
            per_call_us(5, 10, || {
                black_box(client.open(DOMAIN).expect("handshake"));
            }),
            "us",
        ),
        (
            "tls.resumed_handshake_us",
            per_call_us(5, 20, || {
                let s = client
                    .open_resumed(DOMAIN, &ticket)
                    .expect("resumed handshake");
                assert!(s.was_resumed(), "the side fleet declined its own ticket");
            }),
            "us",
        ),
        (
            "http.codec_small_us",
            per_call_us(5, 500, || codec(&page.body)),
            "us",
        ),
        (
            "http.codec_bulk_us",
            per_call_us(5, 4, || codec(&object.body)),
            "us",
        ),
        (
            "http.send_small_us",
            per_call_us(5, 200, || {
                black_box(session.request("/").expect("monitored GET"));
            }),
            "us",
        ),
        (
            "http.send_bulk_us",
            per_call_us(5, 4, || {
                black_box(session.request(&object.path).expect("monitored GET"));
            }),
            "us",
        ),
        (
            "net.dial_exchange_us",
            per_call_us(5, 200, || {
                let mut c = net.dial("10.77.0.1:7").expect("dial");
                black_box(c.exchange(&small).expect("echo"));
            }),
            "us",
        ),
        (
            "net.exchange_mb_per_s",
            mb_per_s(OBJECT_BYTES, exchange_us),
            "MB/s",
        ),
        (
            "net.dns_resolve_us",
            per_call_us(5, 1_000, || {
                black_box(world.dns.resolve(DOMAIN).expect("resolves"));
            }),
            "us",
        ),
        ("net.bind_us_per_node", bind_us, "us"),
        (
            "snp.verify_batched_us",
            per_call_us(5, 10, || {
                verifier
                    .verify_batched(&evidence.report, &chain)
                    .expect("valid report")
            }),
            "us",
        ),
        (
            "snp.kds_vcek_chain_us",
            per_call_us(5, 10, || {
                black_box(
                    kds.vcek_chain(&report.chip_id, &report.reported_tcb)
                        .expect("KDS"),
                );
            }),
            "us",
        ),
        (
            "verifier.verify_evidence_hit_us",
            per_call_us(5, 500, || {
                black_box(
                    ext.verify_evidence(DOMAIN, &evidence)
                        .expect("cached verdict"),
                );
            }),
            "us",
        ),
        (
            "verifier.verify_evidence_miss_us",
            prepared_us(
                9,
                |_| {
                    let fresh = world.extension();
                    fresh.register_site(DOMAIN, [fx.fleet.golden_measurement]);
                    fresh
                },
                |fresh| {
                    black_box(
                        fresh
                            .verify_evidence(DOMAIN, &evidence)
                            .expect("full verify"),
                    );
                },
            ),
            "us",
        ),
        (
            "verifier.verify_connection_us",
            per_call_us(5, 500, || {
                ext.verify_connection(&evidence, &key).expect("bound key")
            }),
            "us",
        ),
        (
            "verifier.evidence_fetch_us",
            per_call_us(5, 20, || {
                let r = raw
                    .send(&Request::get(WELL_KNOWN_ATTESTATION_PATH))
                    .expect("evidence");
                black_box(EvidenceBundle::from_bytes(&r.body).expect("bundle"));
            }),
            "us",
        ),
    ];
    net.unbind("10.77.0.1:7");
    Ok(rows)
}

fn control_rows(seed: u64, mut fx: Fixture) -> Result<Vec<Row>, String> {
    let mut spec = fx
        .world
        .image_spec(DOMAIN, &["web-service", "metrics-agent"]);
    spec.rootfs
        .add_file(
            "/usr/lib/agent/payload.bin",
            Rng::new(seed, 6).bytes(VOLUME_BYTES),
            0o644,
        )
        .map_err(err("payload"))?;
    let build_ms = prepared_us(
        3,
        |_| (),
        |()| {
            black_box(build_image(&spec).expect("image builds"));
        },
    ) / 1e3;
    let target = fx.world.build(&spec).map_err(err("build"))?.1;

    // Each boot gets a freshly built image: the first boot seals the
    // image's data volume to its chip, as a deployment's would.
    let world = &mut fx.world;
    let mut boot_ms = Vec::new();
    for i in 0..3u8 {
        let image = build_image(&spec).map_err(err("build"))?;
        let platform = world.new_platform();
        let t0 = Instant::now();
        Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                &platform,
                &image,
                GuestPolicy::default(),
                BootOptions {
                    identity_seed: [i; 32],
                    ..BootOptions::default()
                },
            )
            .map_err(err("boot"))?;
        boot_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Two extra nodes for a second domain: deploy each, then provision
    // both through a service-provider node of their own.
    let ops_domain = "ops.example.org";
    let base = world.image_spec(ops_domain, &["web-service"]);
    let mut golden = None;
    let mut deploy_ms = Vec::new();
    let mut nodes = Vec::new();
    for i in 0..2u8 {
        let (base_image, measurement) = world.build(&base).map_err(err("build"))?;
        golden = Some(measurement);
        let t0 = Instant::now();
        let node = world
            .deploy_node(ops_domain, &base_image, fx.content.router(), [0x40 + i; 32])
            .map_err(err("deploy_node"))?;
        deploy_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        nodes.push(node);
    }
    let allowlist = nodes
        .iter()
        .map(|n| (n.vm().guest().chip_id(), n.bootstrap_address().to_owned()))
        .collect();
    let sp = world.sp_node_for_domain(
        ops_domain,
        revelio::registry::GoldenSet::from_measurements(golden),
        allowlist,
    );
    let bootstraps: Vec<String> = nodes
        .iter()
        .map(|n| n.bootstrap_address().to_owned())
        .collect();
    let t0 = Instant::now();
    sp.provision(&bootstraps).map_err(err("provision"))?;
    let provision_ms = t0.elapsed().as_secs_f64() * 1e3 / bootstraps.len() as f64;

    let key = SigningKey::from_seed(&[0x33; 32]);
    let acme_ms = prepared_us(
        3,
        |i| {
            CertificateSigningRequest::new(
                &format!("acme{i}.example.org"),
                &key,
                "Example Org",
                "CH",
            )
        },
        |csr| {
            world.acme.order_certificate(&csr).expect("ACME order");
        },
    ) / 1e3;

    // A canary-first rollout of the side fleet onto the payload image.
    let upgrader = world.fleet_upgrader(&fx.fleet, fx.content.router(), spec);
    let mut fleet_spec = FleetSpec::new(DOMAIN, target);
    fleet_spec.tick_interval_ms = 60_000;
    let mut rec = world.reconciler(&fx.fleet, fleet_spec, upgrader);
    let t0 = Instant::now();
    if !rec.run_until_converged(100) {
        return Err("side rollout did not converge".into());
    }
    let tick_ms = t0.elapsed().as_secs_f64() * 1e3 / rec.ticks().max(1) as f64;

    Ok(vec![
        ("sp.provision_ms_per_node", provision_ms, "ms"),
        ("node.deploy_ms", median(&mut deploy_ms), "ms"),
        ("reconcile.tick_ms", tick_ms, "ms"),
        ("pki.acme_order_ms", acme_ms, "ms"),
        (
            "build.image_ms_per_mib",
            build_ms / (VOLUME_BYTES as f64 / MIB),
            "ms",
        ),
        ("boot.boot_ms", median(&mut boot_ms), "ms"),
    ])
}
