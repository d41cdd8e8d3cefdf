module jitsu/bench

go 1.24

require jitsu v0.0.0

replace jitsu => ../
