package tpcw

import (
	"fmt"
	"math"
	"strings"
)

// Mix is one of the TPC-W standard transaction mixes: a target visit
// distribution over the 14 transaction types plus the contention
// environment intensity typical for that navigation pattern.
type Mix struct {
	Name string
	// Weights is the target stationary visit distribution (sums to 1).
	Weights [NumTransactions]float64
	// FrontContention configures slow periods at the front server (e.g.,
	// heap/cache pressure under listing-heavy navigation). Zero disables.
	FrontContention ContentionParams
	// DBContention configures the contention epochs at the database that
	// trigger-prone transactions can start (Section 3.3). Zero disables.
	DBContention ContentionParams
}

// BrowseFraction returns the total weight of Browsing-type transactions.
func (m Mix) BrowseFraction() float64 {
	sum := 0.0
	for t := Transaction(0); t < NumTransactions; t++ {
		if t.IsBrowsing() {
			sum += m.Weights[t]
		}
	}
	return sum
}

// Validate checks that the weights form a distribution.
func (m Mix) Validate() error {
	sum := 0.0
	for t, w := range m.Weights {
		if w < 0 {
			return fmt.Errorf("tpcw: mix %q weight[%v] = %v negative", m.Name, Transaction(t), w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("tpcw: mix %q weights sum to %v, want 1", m.Name, sum)
	}
	return nil
}

// BrowsingMix returns the TPC-W browsing mix (~95% browsing, 5%
// ordering). Its visit shares follow the TPC-W WIPSb profile: Best Seller
// draws ~11% of requests (the share the paper reports in Section 3.3),
// which makes database contention epochs frequent enough to cause
// bottleneck switch.
func BrowsingMix() Mix {
	return Mix{
		Name: "browsing",
		Weights: [NumTransactions]float64{
			Home:                 0.2900,
			NewProducts:          0.1100,
			BestSellers:          0.1100,
			ProductDetail:        0.2100,
			SearchRequest:        0.1200,
			ExecuteSearch:        0.1100,
			ShoppingCart:         0.0200,
			CustomerRegistration: 0.0082,
			BuyRequest:           0.0075,
			BuyConfirm:           0.0069,
			OrderInquiry:         0.0030,
			OrderDisplay:         0.0025,
			AdminRequest:         0.0010,
			AdminConfirm:         0.0009,
		},
		FrontContention: ContentionParams{
			TriggerProbability: 0.0012,
			SlowFactor:         0.25,
			MeanDuration:       2.0,
		},
		DBContention: ContentionParams{
			TriggerProbability: 0.0035,
			SlowFactor:         0.08,
			MeanDuration:       3.0,
			BackgroundRate:     0.010,
		},
	}
}

// ShoppingMix returns the TPC-W shopping mix (~80% browsing, 20%
// ordering), following the WIPS profile: Best Seller falls to ~5%, the
// database still serves bursty queries (high I) but at utilizations too
// low for the bursts to flip the bottleneck.
func ShoppingMix() Mix {
	return Mix{
		Name: "shopping",
		Weights: [NumTransactions]float64{
			Home:                 0.1600,
			NewProducts:          0.0500,
			BestSellers:          0.0500,
			ProductDetail:        0.1700,
			SearchRequest:        0.2000,
			ExecuteSearch:        0.1700,
			ShoppingCart:         0.1160,
			CustomerRegistration: 0.0300,
			BuyRequest:           0.0260,
			BuyConfirm:           0.0120,
			OrderInquiry:         0.0075,
			OrderDisplay:         0.0066,
			AdminRequest:         0.0010,
			AdminConfirm:         0.0009,
		},
		DBContention: ContentionParams{
			TriggerProbability: 0.0024,
			SlowFactor:         0.08,
			MeanDuration:       2.5,
			BackgroundRate:     0.010,
		},
	}
}

// OrderingMix returns the TPC-W ordering mix (~50% browsing, 50%
// ordering), following the WIPSo profile: Best Seller nearly vanishes
// (~0.5%), so database contention epochs are rare and the workload is
// only mildly bursty.
func OrderingMix() Mix {
	return Mix{
		Name: "ordering",
		Weights: [NumTransactions]float64{
			Home:                 0.0912,
			NewProducts:          0.0046,
			BestSellers:          0.0046,
			ProductDetail:        0.1235,
			SearchRequest:        0.1453,
			ExecuteSearch:        0.1308,
			ShoppingCart:         0.1353,
			CustomerRegistration: 0.1286,
			BuyRequest:           0.1273,
			BuyConfirm:           0.1018,
			OrderInquiry:         0.0025,
			OrderDisplay:         0.0022,
			AdminRequest:         0.0012,
			AdminConfirm:         0.0011,
		},
		DBContention: ContentionParams{
			TriggerProbability: 0.0022,
			SlowFactor:         0.10,
			MeanDuration:       1.5,
			BackgroundRate:     0.005,
		},
	}
}

// StandardMixes returns the three TPC-W mixes in the paper's order.
func StandardMixes() []Mix {
	return []Mix{BrowsingMix(), ShoppingMix(), OrderingMix()}
}

// MixByName resolves a mix name ("browsing", "shopping", "ordering")
// against StandardMixes. Unknown names error, listing the valid ones.
func MixByName(name string) (Mix, error) {
	mixes := StandardMixes()
	names := make([]string, len(mixes))
	for i, m := range mixes {
		if m.Name == name {
			return m, nil
		}
		names[i] = m.Name
	}
	return Mix{}, fmt.Errorf("tpcw: unknown mix %q (want %s)", name, strings.Join(names, ", "))
}
