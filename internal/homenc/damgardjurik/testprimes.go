package damgardjurik

import (
	"fmt"
	"math/big"
	"math/rand/v2"
)

// Precomputed safe primes for tests, examples and benchmarks. They make
// key setup instantaneous and deterministic. DO NOT use them to protect
// anything: their factorizations are public by construction (they sit in
// this source file).
var knownSafePrimes = map[int][2]string{
	64: {
		"16789170908485046927",
		"14026146571354011467",
	},
	128: {
		"282999416242222447274964463183096259399",
		"314420795639698709615179767023255641439",
	},
	256: {
		"100525766844833656671303923414328398289579659103001943578658899980222061594823",
		"88509685524954922560713284193511004286848701670225608083799748344189573134027",
	},
	512: {
		"10077582970576515607682422383856137189728070608317332768024400650979153125236442788008029299582665740192463601562515852430980601014460143283612237645500423",
		"12551734917502876393102833814116710147876757616772902224810626724270433175265264402635740024962419809575122440552902291779414500425292510828778883868770059",
	},
}

// KnownSafePrimes returns a precomputed pair of safe primes whose
// individual bit length is primeBits (so the resulting RSA modulus has
// 2·primeBits bits; the paper's 1024-bit key corresponds to primeBits =
// 512). Supported sizes: 64, 128, 256, 512.
func KnownSafePrimes(primeBits int) (p, q *big.Int, err error) {
	pair, ok := knownSafePrimes[primeBits]
	if !ok {
		return nil, nil, fmt.Errorf("damgardjurik: no known safe primes of %d bits", primeBits)
	}
	p, _ = new(big.Int).SetString(pair[0], 10)
	q, _ = new(big.Int).SetString(pair[1], 10)
	return p, q, nil
}

// testKeySeed seeds the key material of every NewTestScheme instance.
var testKeySeed = [32]byte([]byte("chiaroscuro test key material..."))

// NewTestScheme builds a scheme from the precomputed safe primes. It is
// the standard entry point for tests, examples and benchmarks. keyBits
// is the modulus size (twice the prime size): 128, 256, 512 or 1024.
// Its key material comes from a fixed seeded stream, so every instance
// with equal parameters holds the same key-shares — separately started
// processes combine each other's partial decryptions — while Encrypt
// still draws its randomizers from crypto/rand.
func NewTestScheme(keyBits, s, nShares, threshold int) (*Scheme, error) {
	p, q, err := KnownSafePrimes(keyBits / 2)
	if err != nil {
		return nil, err
	}
	return newFromPrimes(rand.NewChaCha8(testKeySeed), nil, p, q, s, nShares, threshold)
}
