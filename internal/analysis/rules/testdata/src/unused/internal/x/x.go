// Package x sits outside the serving packages the rule once reported
// in; it reports in every package of the module now.
package x

func Stale() {} // want `func Stale is never used; delete it`
