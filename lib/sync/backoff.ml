let first = 4
let limit = 512

let pause window =
  Pqsim.Api.work (1 + Pqsim.Api.rand window);
  let doubled = 2 * window in
  if doubled > limit then limit else doubled
