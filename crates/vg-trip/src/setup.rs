//! TRIP system setup (Fig 7).
//!
//! Initializes the ledger with the electoral roll, runs the authority DKG,
//! generates keys for officials, kiosks and envelope printers, establishes
//! the official↔kiosk shared MAC secret s_rk, and stocks the booths with
//! envelopes — at least c·|V| + λ_E·|K| of them, so that a coerced voter
//! can never accurately count the booth's envelope supply (Appendix F.1,
//! parameter λ_E).

use vg_crypto::dkg::Authority;
use vg_crypto::drbg::Rng;
use vg_crypto::schnorr::SigningKey;
use vg_crypto::CompressedPoint;
use vg_ledger::{EnvelopeLedger, Ledger, LedgerBackend, VoterId};

use crate::error::TripError;
use crate::kiosk::{Kiosk, KioskBehavior, StolenCredential};
use crate::materials::{Envelope, Symbol};
use crate::official::Official;
use crate::printer::{print_supply, EnvelopePrinter};

/// Configuration for a TRIP deployment.
#[derive(Clone, Debug)]
pub struct TripConfig {
    /// Number of eligible voters |V| (roster is 1..=n).
    pub n_voters: u64,
    /// Number of registration officials.
    pub n_officials: usize,
    /// Number of kiosks |K|.
    pub n_kiosks: usize,
    /// Number of envelope printers |P|.
    pub n_printers: usize,
    /// Authority members n_A (the paper's evaluation uses 4).
    pub n_authority: usize,
    /// Decryption threshold t (n_A for the paper's n−1-compromise model).
    pub threshold: usize,
    /// Expected envelopes consumed per voter (the constant c ≥ 2, Fig 7).
    pub envelopes_per_voter: usize,
    /// Minimum envelopes per booth (the security parameter λ_E).
    pub lambda_e: usize,
    /// Storage backend for the public bulletin board.
    pub backend: LedgerBackend,
}

impl Default for TripConfig {
    fn default() -> Self {
        Self {
            n_voters: 8,
            n_officials: 1,
            n_kiosks: 1,
            n_printers: 1,
            n_authority: 4,
            threshold: 4,
            envelopes_per_voter: 2,
            lambda_e: 16,
            backend: LedgerBackend::InMemory,
        }
    }
}

impl TripConfig {
    /// A minimal configuration for `n` voters.
    pub fn with_voters(n: u64) -> Self {
        Self {
            n_voters: n,
            ..Self::default()
        }
    }

    /// The envelope supply n_E > c·|V| + λ_E·|K| (Fig 7 line 5).
    pub fn envelope_supply(&self) -> usize {
        self.envelopes_per_voter * self.n_voters as usize + self.lambda_e * self.n_kiosks + 1
    }
}

/// Static transport keys for the secure service channels, enrolled at
/// setup exactly like officials' and kiosks' signing keys (Fig 7 keygen).
///
/// TRIP's deployment (§6) has polling stations stream coupon-bearing
/// check-out submissions to the registrar over a real network; the
/// secure-channel handshake authenticates both ends with these keys. One
/// key per kiosk-sized station slot: station `i` of a fleet uses key
/// `i mod n_kiosks`, and its refiller's and steal runners' connections
/// reuse the same identity (they act on the station's behalf).
pub struct TransportKeyring {
    /// The registrar gateway's static key.
    pub registrar: SigningKey,
    /// The registrar's public enrolment (what stations pin).
    pub registrar_pk: CompressedPoint,
    /// Per-station static keys.
    pub stations: Vec<SigningKey>,
    /// Public station enrolments (what the registrar admits).
    pub station_registry: Vec<CompressedPoint>,
}

impl core::fmt::Debug for TransportKeyring {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The static signing keys stay off logs; enrolments are public.
        write!(
            f,
            "TransportKeyring(registrar_pk={:?}, stations={}, keys=<redacted>)",
            self.registrar_pk,
            self.stations.len()
        )
    }
}

impl TransportKeyring {
    /// Generates a keyring with one station slot per kiosk.
    pub fn generate(n_stations: usize, rng: &mut dyn Rng) -> Self {
        let registrar = SigningKey::generate(rng);
        let registrar_pk = registrar.public_key_compressed();
        let stations: Vec<SigningKey> = (0..n_stations.max(1))
            .map(|_| SigningKey::generate(rng))
            .collect();
        let station_registry = stations.iter().map(|k| k.public_key_compressed()).collect();
        Self {
            registrar,
            registrar_pk,
            stations,
            station_registry,
        }
    }

    /// The station key for fleet station `i` (round-robin over slots).
    pub fn station(&self, i: usize) -> &SigningKey {
        &self.stations[i % self.stations.len()]
    }
}

/// A fully initialized TRIP registration system.
pub struct TripSystem {
    /// The configuration used at setup.
    pub config: TripConfig,
    /// The election authority (collective ElGamal key A_pk).
    pub authority: Authority,
    /// Registration officials.
    pub officials: Vec<Official>,
    /// Booth kiosks.
    pub kiosks: Vec<Kiosk>,
    /// Envelope printers.
    pub printers: Vec<EnvelopePrinter>,
    /// The public bulletin board.
    pub ledger: Ledger,
    /// The booths' shared envelope supply.
    pub booth_envelopes: Vec<Envelope>,
    /// Authorized kiosk public keys.
    pub kiosk_registry: Vec<CompressedPoint>,
    /// Authorized printer public keys.
    pub printer_registry: Vec<CompressedPoint>,
    /// Credentials stolen by compromised kiosks (experiment bookkeeping;
    /// empty when all kiosks are honest).
    pub adversary_loot: Vec<StolenCredential>,
    /// Static keys for the secure service channels.
    pub transport_keys: TransportKeyring,
}

impl TripSystem {
    /// Runs Setup (Fig 7) with all kiosks honest. The booth supply is
    /// printed and committed to L_E by [`print_supply`]: signed on the
    /// host's cores, posted in folded batches, and bit-identical to one
    /// `print_one` per envelope.
    pub fn setup(config: TripConfig, rng: &mut dyn Rng) -> Self {
        Self::setup_with_behavior(config, KioskBehavior::Honest, rng)
    }

    /// Runs Setup with a chosen kiosk behaviour (for integrity-adversary
    /// experiments).
    pub fn setup_with_behavior(
        config: TripConfig,
        behavior: KioskBehavior,
        rng: &mut dyn Rng,
    ) -> Self {
        // Electoral roll V = {1 … n} and empty sub-ledgers.
        let roster: Vec<VoterId> = (1..=config.n_voters).map(VoterId).collect();
        let mut ledger = Ledger::with_backend(roster, config.backend.clone(), rng);

        // DKG for the authority's collective key (Fig 7 line 2).
        let authority = Authority::dkg(config.n_authority, config.threshold, rng);

        // Shared official↔kiosk MAC secret s_rk (Fig 7 line 6).
        let mac_key = rng.bytes32();

        let officials: Vec<Official> = (0..config.n_officials)
            .map(|_| Official::new(mac_key, rng))
            .collect();
        let kiosks: Vec<Kiosk> = (0..config.n_kiosks)
            .map(|_| Kiosk::new(mac_key, authority.public_key, behavior, rng))
            .collect();
        let printers: Vec<EnvelopePrinter> = (0..config.n_printers)
            .map(|_| EnvelopePrinter::new(rng))
            .collect();

        // Envelope issuance (Fig 7 line 5), round-robin across printers.
        let booth_envelopes = print_supply(
            &printers,
            &mut ledger.envelopes,
            config.envelope_supply(),
            rng,
        )
        .expect("honest printers commit envelopes");

        let kiosk_registry = kiosks.iter().map(|k| k.public_key()).collect();
        let printer_registry = printers.iter().map(|p| p.public_key()).collect();
        // Drawn after every protocol key so the seeded materials streams
        // of pre-keyring days are unchanged.
        let transport_keys = TransportKeyring::generate(config.n_kiosks, rng);
        Self {
            config,
            authority,
            officials,
            kiosks,
            printers,
            ledger,
            booth_envelopes,
            kiosk_registry,
            printer_registry,
            adversary_loot: Vec::new(),
            transport_keys,
        }
    }

    /// Tops the booth supply back up above the λ_E floor whenever it runs
    /// low, keeping every symbol stocked (printers may issue additional
    /// envelopes; paper footnote 6). The floor also prevents coerced
    /// voters from counting the supply (Appendix F.1). The restock is one
    /// [`print_supply`] of twice the floor.
    pub fn restock_booth(&mut self, rng: &mut dyn Rng) -> Result<(), vg_ledger::LedgerError> {
        let floor = (self.config.lambda_e * self.config.n_kiosks).max(16);
        if self.booth_envelopes.len() >= floor {
            return Ok(());
        }
        let restock = print_supply(&self.printers, &mut self.ledger.envelopes, floor * 2, rng)?;
        self.booth_envelopes.extend(restock);
        Ok(())
    }
}

/// The voter's hand in a booth supply: `Some(symbol)` takes an envelope
/// showing it — printing fresh ones onto L_E until one does, the extras
/// left in the booth (footnote 6) — and `None` a uniformly random one. Free,
/// so a caller can hold a kiosk of the same [`TripSystem`] meanwhile.
pub fn pick_envelope(
    supply: &mut Vec<Envelope>,
    printer: &EnvelopePrinter,
    ledger: &mut EnvelopeLedger,
    symbol: Option<Symbol>,
    rng: &mut dyn Rng,
) -> Result<Envelope, TripError> {
    let Some(symbol) = symbol else {
        if supply.is_empty() {
            return Err(TripError::NoMatchingEnvelope);
        }
        return Ok(supply.swap_remove(rng.below(supply.len() as u64) as usize));
    };
    loop {
        if let Some(pos) = supply.iter().position(|e| e.symbol == symbol) {
            return Ok(supply.swap_remove(pos));
        }
        supply.push(printer.print_one(ledger, rng.scalar(), Symbol::random(rng))?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::SUPPLY_CHUNK;
    use vg_crypto::HmacDrbg;

    /// The reference a batched supply must reproduce: one `print_one` per
    /// envelope, printer `i mod |P|`, drawing `(e, symbol)` in order.
    fn print_loop(
        printers: &[EnvelopePrinter],
        ledger: &mut EnvelopeLedger,
        n: usize,
        rng: &mut dyn Rng,
    ) -> Vec<Envelope> {
        (0..n)
            .map(|i| {
                printers[i % printers.len()]
                    .print_one(ledger, rng.scalar(), Symbol::random(rng))
                    .expect("honest printer commits")
            })
            .collect()
    }

    /// Setup's draws in setup's order, with the supply printed by
    /// [`print_loop`]: returns the supply, L_E's `(size, root)` and the
    /// generator's next output.
    fn loop_setup(config: &TripConfig, seed: u64) -> (Vec<Envelope>, (u64, [u8; 32]), [u8; 32]) {
        let mut rng = HmacDrbg::from_u64(seed);
        let roster = (1..=config.n_voters).map(VoterId).collect();
        let mut ledger = Ledger::with_backend(roster, config.backend.clone(), &mut rng);
        let authority = Authority::dkg(config.n_authority, config.threshold, &mut rng);
        let mac_key = rng.bytes32();
        for _ in 0..config.n_officials {
            Official::new(mac_key, &mut rng);
        }
        for _ in 0..config.n_kiosks {
            Kiosk::new(
                mac_key,
                authority.public_key,
                KioskBehavior::Honest,
                &mut rng,
            );
        }
        let printers: Vec<EnvelopePrinter> = (0..config.n_printers)
            .map(|_| EnvelopePrinter::new(&mut rng))
            .collect();
        let supply = print_loop(
            &printers,
            &mut ledger.envelopes,
            config.envelope_supply(),
            &mut rng,
        );
        TransportKeyring::generate(config.n_kiosks, &mut rng);
        let head = ledger.envelopes.tree_head();
        (supply, (head.size, head.root), rng.bytes32())
    }

    fn supply_config(n_voters: u64, lambda_e: usize, n_printers: usize) -> TripConfig {
        TripConfig {
            n_voters,
            lambda_e,
            n_printers,
            ..TripConfig::default()
        }
    }

    /// `TripSystem::setup` against [`loop_setup`] from the same seed.
    fn assert_setup_matches_loop(config: TripConfig, seed: u64) {
        let (supply, head, next) = loop_setup(&config, seed);
        let mut rng = HmacDrbg::from_u64(seed);
        let system = TripSystem::setup(config, &mut rng);
        let batched = system.ledger.envelopes.tree_head();
        assert_eq!(system.booth_envelopes, supply);
        assert_eq!((batched.size, batched.root), head);
        assert_eq!(rng.bytes32(), next);
    }

    #[test]
    fn supply_matches_print_one_loop_below_the_parallel_cutoff() {
        // 2·2 + 4·1 + 1 = 9 envelopes: every step runs inline.
        for n_printers in [1, 3] {
            let config = supply_config(2, 4, n_printers);
            assert_eq!(config.envelope_supply(), 9);
            assert_setup_matches_loop(config, 61);
        }
    }

    #[test]
    fn supply_matches_print_one_loop_on_the_host_cores() {
        for n_printers in [1, 3] {
            let config = supply_config(40, 16, n_printers);
            assert_eq!(config.envelope_supply(), 97);
            assert_setup_matches_loop(config, 62);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "4 097 envelopes; run in release")]
    fn supply_matches_print_one_loop_past_a_chunk() {
        for n_printers in [1, 3] {
            let config = supply_config(2040, 16, n_printers);
            assert_eq!(config.envelope_supply(), SUPPLY_CHUNK + 1);
            assert_setup_matches_loop(config, 63);
        }
    }

    #[test]
    fn supply_matches_print_one_loop_on_restock() {
        for n_printers in [1, 3] {
            let config = supply_config(4, 16, n_printers);
            let mut rng_a = HmacDrbg::from_u64(64);
            let mut rng_b = HmacDrbg::from_u64(64);
            let mut a = TripSystem::setup(config.clone(), &mut rng_a);
            let mut b = TripSystem::setup(config, &mut rng_b);
            a.booth_envelopes.truncate(3);
            b.booth_envelopes.truncate(3);
            a.restock_booth(&mut rng_a).expect("restocks");
            // The floor is max(λ_E·|K|, 16) = 16; a restock prints twice it.
            let restock = print_loop(&b.printers, &mut b.ledger.envelopes, 32, &mut rng_b);
            b.booth_envelopes.extend(restock);
            assert_eq!(a.booth_envelopes, b.booth_envelopes);
            assert_eq!(
                a.ledger.envelopes.tree_head(),
                b.ledger.envelopes.tree_head()
            );
            assert_eq!(rng_a.bytes32(), rng_b.bytes32());
        }
    }

    #[test]
    fn supply_matches_print_one_loop_in_print_batch() {
        for n in [9, 40] {
            let mut rng_a = HmacDrbg::from_u64(65);
            let mut rng_b = HmacDrbg::from_u64(65);
            let mut a = TripSystem::setup(TripConfig::with_voters(4), &mut rng_a);
            let mut b = TripSystem::setup(TripConfig::with_voters(4), &mut rng_b);
            let batch = a.printers[0]
                .print_batch(&mut a.ledger.envelopes, n, &mut rng_a)
                .expect("prints");
            let looped = print_loop(&b.printers[..1], &mut b.ledger.envelopes, n, &mut rng_b);
            assert_eq!(batch, looped);
            assert_eq!(
                a.ledger.envelopes.tree_head(),
                b.ledger.envelopes.tree_head()
            );
            assert_eq!(rng_a.bytes32(), rng_b.bytes32());
        }
    }

    #[test]
    fn setup_produces_consistent_system() {
        let mut rng = HmacDrbg::from_u64(1);
        let config = TripConfig::with_voters(4);
        let supply = config.envelope_supply();
        let system = TripSystem::setup(config, &mut rng);
        assert_eq!(system.booth_envelopes.len(), supply);
        assert_eq!(system.ledger.envelopes.committed_count(), supply);
        assert_eq!(system.kiosk_registry.len(), 1);
        assert!(system.ledger.registration.is_eligible(VoterId(1)));
        assert!(!system.ledger.registration.is_eligible(VoterId(5)));
        // λ_E floor: booth never stocked below the minimum.
        assert!(supply > 2 * 4 + 16 - 1);
    }

    #[test]
    fn envelope_selection_by_symbol() {
        let mut rng = HmacDrbg::from_u64(2);
        let mut system = TripSystem::setup(TripConfig::with_voters(4), &mut rng);
        let before = system.booth_envelopes.len();
        let committed = system.ledger.envelopes.committed_count();
        let ledger = &mut system.ledger.envelopes;
        let printer = &system.printers[0];
        let env = pick_envelope(
            &mut system.booth_envelopes,
            printer,
            ledger,
            Some(Symbol::Star),
            &mut rng,
        )
        .expect("a star envelope exists in a healthy supply");
        assert_eq!(env.symbol, Symbol::Star);
        assert_eq!(system.booth_envelopes.len(), before - 1);
        assert_eq!(system.ledger.envelopes.committed_count(), committed);
    }

    /// Footnote 6: a symbol the booth has run out of is printed until it
    /// appears; the extras stay in the booth and every print is on L_E.
    #[test]
    fn missing_symbol_is_printed_until_it_appears() {
        let mut rng = HmacDrbg::from_u64(3);
        let mut system = TripSystem::setup(TripConfig::with_voters(4), &mut rng);
        system.booth_envelopes.retain(|e| e.symbol != Symbol::Star);
        let (before, committed) = (
            system.booth_envelopes.len(),
            system.ledger.envelopes.committed_count(),
        );
        let ledger = &mut system.ledger.envelopes;
        let printer = &system.printers[0];
        let env = pick_envelope(
            &mut system.booth_envelopes,
            printer,
            ledger,
            Some(Symbol::Star),
            &mut rng,
        )
        .expect("the printer issues a star");
        assert_eq!(env.symbol, Symbol::Star);
        let printed = system.ledger.envelopes.committed_count() - committed;
        assert_eq!(system.booth_envelopes.len(), before + printed - 1);
    }
}
