type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x494d5450 |]
let int t bound = Random.State.int t bound

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  Array.unsafe_get a (int t (Array.length a))

let float t bound = Random.State.float t bound
let bool t = Random.State.bool t
let split t = Random.State.make [| Random.State.bits t |]
let copy = Random.State.copy
let bits t = Random.State.bits t
let stream ~base ~index = Random.State.make [| base; index; 0x494d5450 |]
