package service

import (
	"context"
	"encoding/json"

	"cpsdyn/internal/cluster"
	"cpsdyn/internal/core"
)

// This file is the gateway side of the cluster layer: the route hook the
// derive row function takes when Config.Peers is set. Both derive framings
// keep their single-node contract — identical validation, identical wire
// rows, identical ordering — because they run the single-node row function;
// the hook only offers each validated app to the replica owning its
// canonical cache key (core.Application.CacheKey) on the consistent-hash
// ring, over one persistent NDJSON sub-stream per peer and request
// (cluster.Session). A row whose peer is down, slow or circuit-broken is
// derived locally instead, so a degraded cluster answers exactly what a
// single node would, just colder.

// routeHook answers one validated derive row through another node. ok ==
// false leaves the row to the local derivation.
type routeHook func(ctx context.Context, spec *DeriveAppSpec, index int, app *core.Application) (row StreamRow, ok bool)

// hopKey marks the context of a request a gateway forwarded
// (cluster.HopHeader).
type hopKey struct{}

// routeFor opens the route hook for one request: peerRoute over a
// cluster.Session holding at most workers rows in flight per peer, closed by
// done. The hook is nil — every row derives locally — on a single node (gw
// == nil) and on a hop-marked sub-request: re-sharding a request a gateway
// already forwarded could recurse, and a peer list that (mis)includes the
// gateway's own address, or a ring of gateways, must degrade to one extra
// hop, not to a stack of sub-requests eating every in-flight slot. The
// session dies with ctx, so a client disconnect or budget expiry tears the
// per-peer sub-requests down too.
func routeFor(ctx context.Context, gw *cluster.Gateway, workers int) (route routeHook, done func()) {
	if gw == nil || ctx.Value(hopKey{}) != nil {
		return nil, func() {}
	}
	sess := gw.Session(ctx, workers)
	return func(ctx context.Context, spec *DeriveAppSpec, index int, app *core.Application) (StreamRow, bool) {
		return peerRoute(ctx, sess, spec, index, app)
	}, sess.Close
}

// gatewayLine renders the canonical NDJSON request line forwarded to a
// replica: the client's spec with its index-dependent default (the frame ID)
// resolved, so the replica compiles exactly the application the gateway
// validated no matter where the line lands in the sub-stream's own
// numbering.
func gatewayLine(spec DeriveAppSpec, index int) ([]byte, error) {
	if spec.FrameID == 0 {
		spec.FrameID = index + 1
	}
	return json.Marshal(spec)
}

// peerDeriveRow interprets a replica's raw response row, re-indexed into the
// gateway's own numbering. ok == false means the row is not a well-formed
// result-or-error row and the caller must derive locally.
func peerDeriveRow(raw []byte, index int) (StreamRow, bool) {
	var row StreamRow
	if err := json.Unmarshal(raw, &row); err != nil || (row.Result == nil) == (row.Error == "") {
		return StreamRow{}, false
	}
	row.Index = index
	return row, true
}

// peerRoute tries to answer one validated app through the replica owning
// its cache key. ok == false means the caller must derive locally — the
// owner was down, slow or circuit-broken, or its answer was unusable (the
// shape check runs inside the exchange via Do's accept hook, so a rejected
// row lands in the fallback books and charges the peer instead of
// masquerading as a success).
func peerRoute(ctx context.Context, sess *cluster.Session,
	spec *DeriveAppSpec, index int, app *core.Application) (StreamRow, bool) {
	line, err := gatewayLine(*spec, index)
	if err != nil {
		return StreamRow{}, false
	}
	var row StreamRow
	_, ok := sess.Do(ctx, app.CacheKey(), line, func(raw []byte) bool {
		var shaped bool
		row, shaped = peerDeriveRow(raw, index)
		// A cancelled row is the replica's own stream dying (its budget
		// expired, say), not the app failing to derive: a single node
		// would have answered the app, so the gateway rejects the row —
		// deriving it locally and charging the replica, which earns its
		// breaker cooldown by repeatedly cancelling mid-stream. The
		// structured marker, not error text, carries the distinction: the
		// text embeds client-chosen names, which must not be able to spell
		// a row into looking cancelled.
		return shaped && !row.Cancelled
	})
	return row, ok
}
