// Package vars seeds metriclint's expvar violations: dynamic names, names that are
// not snake_case, and a duplicate registration.
package vars

import "expvar"

var hits = expvar.NewInt("request_hits")
var lat = expvar.NewFloat("mean_latency")

var dynamic = "computed_name"

var a = expvar.NewInt(dynamic)          // want "must be a string literal"
var b = expvar.NewString("BadName")     // want "not snake_case"
var c = expvar.NewMap("2fast")          // want "not snake_case"
var d = expvar.NewFloat("request_hits") // want "registered twice"
