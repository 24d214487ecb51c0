//! Micro-benchmarks for the cryptographic primitives, on the in-repo
//! `dlt_testkit::bench` harness (`cargo bench --bench crypto`).
//! Results print to stderr and land in `results/bench_crypto.json`.

use std::hint::black_box;

use dlt_crypto::keys::Keypair;
use dlt_crypto::merkle::{merkle_root, MerkleTree};
use dlt_crypto::mss::MssKeypair;
use dlt_crypto::sha256::sha256;
use dlt_crypto::trie::TrieDb;
use dlt_crypto::wots::WotsKeypair;
use dlt_testkit::bench::BenchSuite;

fn bench_sha256(suite: &mut BenchSuite) {
    // 48 B is one WOTS chain step: the single-block hash signing and
    // verification are made of.
    for size in [48usize, 64, 1024, 65_536] {
        let data = vec![0xabu8; size];
        suite
            .throughput_bytes(size as u64)
            .bench(&format!("sha256/{size}B"), || sha256(black_box(&data)));
    }
}

fn bench_merkle(suite: &mut BenchSuite) {
    let leaves: Vec<_> = (0..1024u64).map(|i| sha256(&i.to_be_bytes())).collect();
    suite.bench("merkle_root_1024", || merkle_root(black_box(&leaves)));
    let tree = MerkleTree::from_leaves(leaves.clone());
    suite.bench("merkle_prove_verify", || {
        let proof = tree.prove(777).unwrap();
        assert!(proof.verify(&tree.root(), &leaves[777]));
    });
}

fn bench_trie(suite: &mut BenchSuite) {
    suite.bench("trie_insert_1000", || {
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        for i in 0..1000u64 {
            root = db.insert(root, &i.to_be_bytes(), i.to_le_bytes().to_vec());
        }
        root
    });
    let mut db = TrieDb::new();
    let mut root = TrieDb::EMPTY_ROOT;
    for i in 0..10_000u64 {
        root = db.insert(root, &i.to_be_bytes(), i.to_le_bytes().to_vec());
    }
    suite.bench("trie_get_in_10k", || {
        db.get(root, black_box(&7_777u64.to_be_bytes()))
    });
}

fn bench_signatures(suite: &mut BenchSuite) {
    let msg = sha256(b"benchmark message");
    let wots = WotsKeypair::from_seed([1u8; 32]);
    let sig = wots.sign(&msg);
    suite.bench("wots_sign", || wots.sign(black_box(&msg)));
    suite.bench("wots_verify", || {
        assert!(sig.verify(&msg, &wots.public_digest()));
    });
    suite.bench("mss_keygen_h6", || {
        Keypair::mss_from_seed(black_box([2u8; 32]), 6)
    });
    // Signing spends a leaf; start over from a fresh copy of the key
    // every 1024 signatures.
    let fresh = MssKeypair::from_seed([4u8; 32], 10);
    let mut signer = fresh.clone();
    suite.bench("mss_sign", || {
        if signer.remaining() == 0 {
            signer = fresh.clone();
        }
        signer
            .sign(black_box(&msg))
            .expect("the key has leaves left")
    });
    let mut mss = Keypair::mss_from_seed([3u8; 32], 10);
    let public = mss.public_key();
    let mss_sig = mss.sign(&msg).unwrap();
    suite.bench("mss_verify", || assert!(mss_sig.verify(&msg, &public)));
}

fn main() {
    let mut suite = BenchSuite::new("crypto");
    bench_sha256(&mut suite);
    bench_merkle(&mut suite);
    bench_trie(&mut suite);
    bench_signatures(&mut suite);
    suite.finish();
}
