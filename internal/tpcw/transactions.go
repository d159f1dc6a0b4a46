// Package tpcw simulates the paper's experimental testbed: a TPC-W
// online-bookstore deployment with a front (web + application) server and
// a database server, driven by a closed population of emulated browsers
// (EBs). The simulator realizes the mechanisms the paper identifies as
// the cause of service burstiness — per-type service demands, multiple
// database queries per transaction, and "hidden" resource contention at
// the database triggered by the Best Seller and Home transactions
// (Section 3.3) — and exposes the same coarse measurements the paper's
// tooling collects (per-window utilizations and completion counts).
//
// The testbed is a tandem of K processor-sharing tiers (ConfigN,
// RunNCtx, RunReplicasCtx); DefaultTiers(mix, 2) builds the paper's
// front+DB deployment.
package tpcw

import "fmt"

// Transaction identifies one of the 14 TPC-W transaction types (Table 3).
type Transaction int

// The 14 TPC-W transactions, split into Browsing and Ordering groups as
// in Table 3 of the paper.
const (
	Home Transaction = iota
	NewProducts
	BestSellers
	ProductDetail
	SearchRequest
	ExecuteSearch
	ShoppingCart
	CustomerRegistration
	BuyRequest
	BuyConfirm
	OrderInquiry
	OrderDisplay
	AdminRequest
	AdminConfirm

	NumTransactions = 14
)

// String returns the TPC-W transaction name.
func (t Transaction) String() string {
	names := [...]string{
		"Home", "NewProducts", "BestSellers", "ProductDetail",
		"SearchRequest", "ExecuteSearch", "ShoppingCart",
		"CustomerRegistration", "BuyRequest", "BuyConfirm",
		"OrderInquiry", "OrderDisplay", "AdminRequest", "AdminConfirm",
	}
	if t < 0 || int(t) >= len(names) {
		return fmt.Sprintf("Transaction(%d)", int(t))
	}
	return names[t]
}

// IsBrowsing reports whether the transaction belongs to the Browsing
// group of Table 3.
func (t Transaction) IsBrowsing() bool {
	switch t {
	case Home, NewProducts, BestSellers, ProductDetail, SearchRequest, ExecuteSearch:
		return true
	default:
		return false
	}
}

// Profile holds the service characteristics of one transaction type.
type Profile struct {
	// FrontDemand is the mean CPU seconds consumed at the front server
	// to build the page (HTML plus embedded objects).
	FrontDemand float64
	// FrontSCV is the squared coefficient of variation of front demand.
	FrontSCV float64
	// QueryDemand is the mean CPU seconds per database query.
	QueryDemand float64
	// QuerySCV is the SCV of per-query demand.
	QuerySCV float64
	// MinQueries and MaxQueries bound the number of outbound database
	// queries per transaction (e.g., Home issues 1-2, Best Seller always
	// 2 — Section 3.3).
	MinQueries, MaxQueries int
	// ContentionWeight scales the probability that a query of this type
	// starts a database contention epoch. The paper's analysis
	// (Section 3.3, Figs. 7-8) attributes contention to Best Seller
	// queries (weight 1) with Home queries contributing at the extreme
	// spikes (small weight); all other types never trigger (weight 0).
	ContentionWeight float64
}

// DefaultProfiles returns the per-type service characteristics of the
// simulated testbed. Absolute values are calibrated so that the three
// standard mixes reproduce the shape of the paper's measurements —
// saturation populations near 75/100/150 EBs, peak throughput ordering
// browsing < shopping < ordering, front-vs-DB utilization balance, and
// the index-of-dispersion regimes of Fig. 12 — not the authors' hardware
// timings, which were never published.
func DefaultProfiles() [NumTransactions]Profile {
	return [NumTransactions]Profile{
		Home:                 {FrontDemand: 0.0052, FrontSCV: 2.0, QueryDemand: 0.0014, QuerySCV: 2.0, MinQueries: 1, MaxQueries: 2, ContentionWeight: 0.05},
		NewProducts:          {FrontDemand: 0.0105, FrontSCV: 2.0, QueryDemand: 0.0045, QuerySCV: 3.0, MinQueries: 1, MaxQueries: 2},
		BestSellers:          {FrontDemand: 0.0130, FrontSCV: 2.0, QueryDemand: 0.0080, QuerySCV: 3.0, MinQueries: 2, MaxQueries: 2, ContentionWeight: 1.0},
		ProductDetail:        {FrontDemand: 0.0045, FrontSCV: 1.5, QueryDemand: 0.0012, QuerySCV: 1.5, MinQueries: 1, MaxQueries: 1},
		SearchRequest:        {FrontDemand: 0.0028, FrontSCV: 1.5, QueryDemand: 0.0008, QuerySCV: 1.5, MinQueries: 1, MaxQueries: 1},
		ExecuteSearch:        {FrontDemand: 0.0082, FrontSCV: 2.5, QueryDemand: 0.0015, QuerySCV: 2.5, MinQueries: 1, MaxQueries: 1},
		ShoppingCart:         {FrontDemand: 0.0042, FrontSCV: 2.0, QueryDemand: 0.0015, QuerySCV: 2.0, MinQueries: 1, MaxQueries: 2},
		CustomerRegistration: {FrontDemand: 0.0030, FrontSCV: 1.5, QueryDemand: 0.0010, QuerySCV: 1.5, MinQueries: 1, MaxQueries: 1},
		BuyRequest:           {FrontDemand: 0.0042, FrontSCV: 2.0, QueryDemand: 0.0020, QuerySCV: 2.0, MinQueries: 1, MaxQueries: 2},
		BuyConfirm:           {FrontDemand: 0.0052, FrontSCV: 2.0, QueryDemand: 0.0025, QuerySCV: 2.0, MinQueries: 2, MaxQueries: 2},
		OrderInquiry:         {FrontDemand: 0.0030, FrontSCV: 1.5, QueryDemand: 0.0015, QuerySCV: 1.5, MinQueries: 1, MaxQueries: 1},
		OrderDisplay:         {FrontDemand: 0.0040, FrontSCV: 1.5, QueryDemand: 0.0025, QuerySCV: 1.5, MinQueries: 1, MaxQueries: 2},
		AdminRequest:         {FrontDemand: 0.0040, FrontSCV: 1.5, QueryDemand: 0.0020, QuerySCV: 1.5, MinQueries: 1, MaxQueries: 1},
		AdminConfirm:         {FrontDemand: 0.0050, FrontSCV: 2.0, QueryDemand: 0.0030, QuerySCV: 2.0, MinQueries: 1, MaxQueries: 2},
	}
}
