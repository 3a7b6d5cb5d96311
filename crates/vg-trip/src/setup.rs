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
use vg_ledger::{Ledger, LedgerBackend, VoterId};

use crate::kiosk::{Kiosk, KioskBehavior, StolenCredential};
use crate::materials::Envelope;
use crate::official::Official;
use crate::printer::EnvelopePrinter;

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
/// `i mod n_kiosks`, and its refiller / steal-lane connections reuse the
/// same identity (they act on the station's behalf).
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
    /// Runs Setup (Fig 7) with all kiosks honest.
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
        let supply = config.envelope_supply();
        let mut booth_envelopes = Vec::with_capacity(supply);
        for i in 0..supply {
            let printer = &printers[i % printers.len()];
            let env = printer
                .print_one(
                    &mut ledger.envelopes,
                    rng.scalar(),
                    crate::materials::Symbol::random(rng),
                )
                .expect("honest printer commits envelopes");
            booth_envelopes.push(env);
        }

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
    /// voters from counting the supply (Appendix F.1).
    pub fn restock_booth(&mut self, rng: &mut dyn Rng) -> Result<(), vg_ledger::LedgerError> {
        let floor = (self.config.lambda_e * self.config.n_kiosks).max(16);
        if self.booth_envelopes.len() >= floor {
            return Ok(());
        }
        let batch = floor * 2;
        for i in 0..batch {
            let printer = &self.printers[i % self.printers.len()];
            let env = printer.print_one(
                &mut self.ledger.envelopes,
                rng.scalar(),
                crate::materials::Symbol::random(rng),
            )?;
            self.booth_envelopes.push(env);
        }
        Ok(())
    }
}

/// Takes an envelope with a matching symbol out of a booth supply
/// (free function so callers can hold disjoint borrows of a
/// [`TripSystem`]).
pub fn take_envelope_with_symbol(
    supply: &mut Vec<Envelope>,
    symbol: crate::materials::Symbol,
) -> Option<Envelope> {
    let pos = supply.iter().position(|e| e.symbol == symbol)?;
    Some(supply.swap_remove(pos))
}

/// Takes a uniformly random envelope out of a booth supply.
pub fn take_any_envelope(supply: &mut Vec<Envelope>, rng: &mut dyn Rng) -> Option<Envelope> {
    if supply.is_empty() {
        return None;
    }
    let idx = rng.below(supply.len() as u64) as usize;
    Some(supply.swap_remove(idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

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
        let env =
            take_envelope_with_symbol(&mut system.booth_envelopes, crate::materials::Symbol::Star)
                .expect("a star envelope exists in a healthy supply");
        assert_eq!(env.symbol, crate::materials::Symbol::Star);
        assert_eq!(system.booth_envelopes.len(), before - 1);
    }
}
