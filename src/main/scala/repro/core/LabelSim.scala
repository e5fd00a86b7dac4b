package repro.core

/** Label-similarity functions L(·) of Eq. 1. The paper requires
  * L(a,b) = 1 ⇔ a == b for the default initialization to keep FSimχ
  * well-defined (Section 3.3) — all three functions here satisfy that.
  */
sealed trait LabelSim extends Serializable {
  def name: String
  def sim(a: String, b: String): Double

  /** L(a, b), with L(a, a) = 1 fixed. Engines call it once per label pair
    * (see [[FSimPlan]]), so nothing is cached.
    */
  final def apply(a: String, b: String): Double =
    if (a == b) 1.0 else sim(a, b)
}

object LabelSim {

  /** L_I: 1 if equal, 0 otherwise. */
  case object Indicator extends LabelSim {
    val name = "L_I"
    def sim(a: String, b: String): Double = if (a == b) 1.0 else 0.0
  }

  /** L_E: 1 − levenshtein(a,b) / max(|a|,|b|). */
  case object EditDistance extends LabelSim {
    val name = "L_E"
    def sim(a: String, b: String): Double = {
      val n = a.length; val m = b.length
      if (n == 0 && m == 0) return 1.0
      if (n == 0 || m == 0) return 0.0
      var prev = Array.tabulate(m + 1)(identity)
      var cur = new Array[Int](m + 1)
      var i = 1
      while (i <= n) {
        cur(0) = i
        var j = 1
        while (j <= m) {
          val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
          cur(j) = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
          j += 1
        }
        val t = prev; prev = cur; cur = t
        i += 1
      }
      1.0 - prev(m).toDouble / math.max(n, m)
    }
  }

  /** L_J: Jaro-Winkler similarity (standard p = 0.1, max prefix 4). */
  case object JaroWinkler extends LabelSim {
    val name = "L_J"
    def sim(a: String, b: String): Double = {
      val jaro = jaroSim(a, b)
      if (jaro <= 0.0) return 0.0
      var prefix = 0
      val maxPrefix = math.min(4, math.min(a.length, b.length))
      while (prefix < maxPrefix && a.charAt(prefix) == b.charAt(prefix)) prefix += 1
      math.min(1.0, jaro + prefix * 0.1 * (1.0 - jaro))
    }

    private def jaroSim(a: String, b: String): Double = {
      val n = a.length; val m = b.length
      if (n == 0 && m == 0) return 1.0
      if (n == 0 || m == 0) return 0.0
      val window = math.max(0, math.max(n, m) / 2 - 1)
      val aMatched = new Array[Boolean](n)
      val bMatched = new Array[Boolean](m)
      var matches = 0
      var i = 0
      while (i < n) {
        val lo = math.max(0, i - window); val hi = math.min(m - 1, i + window)
        var j = lo
        var done = false
        while (j <= hi && !done) {
          if (!bMatched(j) && a.charAt(i) == b.charAt(j)) {
            aMatched(i) = true; bMatched(j) = true; matches += 1; done = true
          }
          j += 1
        }
        i += 1
      }
      if (matches == 0) return 0.0
      var transpositions = 0
      var k = 0
      i = 0
      while (i < n) {
        if (aMatched(i)) {
          while (!bMatched(k)) k += 1
          if (a.charAt(i) != b.charAt(k)) transpositions += 1
          k += 1
        }
        i += 1
      }
      val t = transpositions / 2.0
      (matches.toDouble / n + matches.toDouble / m + (matches - t) / matches) / 3.0
    }
  }
}
