package reconstruct

// OraclePairCount exposes the map/big.Int oracle to the external test
// package, which replays the core selector and so cannot live inside
// this one.
var OraclePairCount = oraclePairCount
